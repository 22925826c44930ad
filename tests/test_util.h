// Shared fixtures: a fully wired simulated machine (Simulator + FS + network + kernel)
// and helpers for running guest programs to completion.

#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <memory>
#include <string>

#include "src/kernel/guest.h"
#include "src/kernel/kernel.h"
#include "src/mem/layout.h"
#include "src/mem/shm.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/vfs/fs.h"

namespace remon {

class SimWorld {
 public:
  explicit SimWorld(uint64_t seed = 42, CostModel costs = CostModel::Default())
      : sim(seed, costs), net(&sim), kernel(&sim, &fs, &net, &shm), planner(&sim.rng()) {
    server_machine = net.AddMachine("server");
    client_machine = net.AddMachine("client");
  }

  Process* NewProcess(const std::string& name, int replica_index = -1,
                      uint32_t machine = 0) {
    LayoutPlan plan = planner.PlanFor(replica_index < 0 ? next_layout_++ : replica_index);
    return kernel.CreateProcess(name, machine, plan, replica_index);
  }

  // Runs the event loop until quiescent (or the deadline).
  uint64_t Run(TimeNs deadline = kTimeNever) { return sim.Run(deadline); }

  Simulator sim;
  Filesystem fs;
  Network net;
  ShmRegistry shm;
  Kernel kernel;
  LayoutPlanner planner;
  uint32_t server_machine = 0;
  uint32_t client_machine = 1;

 private:
  int next_layout_ = 10;  // Distinct from replica indices used by MVEE tests.
};

}  // namespace remon

#endif  // TESTS_TEST_UTIL_H_

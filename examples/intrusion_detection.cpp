// Intrusion detection demo: the paper's headline security story.
//
// A "server" parses requests; one request is a code-reuse exploit carrying an
// absolute code address harvested from a leaked binary. Natively the exploit works:
// the gadget runs and exfiltrates a secret file. Under ReMon with Disjoint Code
// Layouts, the same address is executable in at most one replica — the other replica
// faults, GHUMVEE observes the divergence, and the MVEE kills the replica set before
// the exploit's system call does damage (paper §4).

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/remon.h"
#include "src/kernel/guest.h"
#include "src/kernel/kernel.h"
#include "src/mem/shm.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/vfs/fs.h"

using namespace remon;

namespace {

struct World {
  World() : sim(7), net(&sim), kernel(&sim, &fs, &net, &shm) {
    net.AddMachine("host");
    fs.WriteWholeFile("/etc/secret", "the-crown-jewels\n");
  }
  Simulator sim;
  Filesystem fs;
  Network net;
  ShmRegistry shm;
  Kernel kernel;
};

// The vulnerable request handler: a "parser bug" lets a request smuggle a jump
// target. `gadget_addr` models the attacker's leaked code pointer.
ProgramFn VulnerableServer(const std::vector<std::string>& requests, GuestAddr gadget_addr,
                           bool* exfiltrated) {
  return [requests, gadget_addr, exfiltrated](Guest& g) -> GuestTask<void> {
    GuestAddr buf = g.Alloc(256);
    for (const std::string& request : requests) {
      co_await g.Compute(Micros(5));
      if (request.rfind("EXPLOIT", 0) == 0) {
        // The smuggled indirect branch. Under DCL this address is only executable
        // in (at most) the replica the attacker profiled.
        bool ok = co_await g.TryExec(gadget_addr);
        if (ok) {
          // Gadget body: open the secret and "send" it (write to the attacker file).
          int64_t sfd = co_await g.Open("/etc/secret", kO_RDONLY);
          int64_t n = co_await g.Read(static_cast<int>(sfd), buf, 256);
          int64_t out = co_await g.Open("/tmp/exfiltrated", kO_CREAT | kO_RDWR);
          co_await g.Write(static_cast<int>(out), buf, static_cast<uint64_t>(n));
          *exfiltrated = true;
        }
        continue;
      }
      // Benign request: log it.
      int64_t fd = co_await g.Open("/var/server.log", kO_CREAT | kO_WRONLY | kO_APPEND);
      g.Poke(buf, request.data(), request.size());
      co_await g.Write(static_cast<int>(fd), buf, request.size());
      co_await g.Close(static_cast<int>(fd));
    }
  };
}

}  // namespace

// Exits non-zero unless ReMon detects the exploit in scenario 2 before the secret
// leaves the file system.
int main() {
  bool detected = false;
  bool exfiltrated_under_remon = true;
  std::vector<std::string> requests = {"GET /index\n", "GET /about\n", "EXPLOIT",
                                       "GET /after\n"};

  std::printf("=== scenario 1: native execution (no MVEE) ===\n");
  {
    World w;
    RemonOptions opts;
    opts.mode = MveeMode::kNative;
    Remon mvee(&w.kernel, opts);
    bool exfiltrated = false;
    // The attacker knows the (single) process's code layout.
    mvee.Launch(VulnerableServer(requests, 0, &exfiltrated), "native-server");
    // Resolve the gadget after launch: the process's real code base.
    // (Relaunch with the leaked address — models the attacker's prior reconnaissance.)
    GuestAddr leaked = mvee.replicas()[0]->layout.code_base + 0x80;
    World w2;
    Remon mvee2(&w2.kernel, opts);
    bool exfil2 = false;
    mvee2.Launch(VulnerableServer(requests, leaked, &exfil2), "native-server");
    w2.sim.Run();
    std::printf("exploit executed: %s\n", exfil2 ? "YES" : "no");
    std::printf("secret exfiltrated: %s\n",
                w2.fs.ReadWholeFile("/tmp/exfiltrated").has_value() ? "YES" : "no");
  }

  std::printf("\n=== scenario 2: the same exploit under ReMon (2 replicas, DCL) ===\n");
  {
    World w;
    RemonOptions opts;
    opts.mode = MveeMode::kRemon;
    opts.replicas = 2;
    opts.level = PolicyLevel::kNonsocketRw;
    Remon mvee(&w.kernel, opts);
    bool exfiltrated = false;
    // The attacker leaked the MASTER's layout — the best case for the attacker.
    // Probe layouts first with an identical world/seed.
    World probe;
    Remon probe_mvee(&probe.kernel, opts);
    bool dummy = false;
    probe_mvee.Launch(VulnerableServer(requests, 0, &dummy), "server");
    GuestAddr leaked = probe_mvee.replicas()[0]->layout.code_base + 0x80;

    mvee.Launch(VulnerableServer(requests, leaked, &exfiltrated), "server");
    w.sim.Run();

    detected = mvee.divergence_detected();
    exfiltrated_under_remon = w.fs.ReadWholeFile("/tmp/exfiltrated").has_value();
    std::printf("divergence detected: %s\n", detected ? "YES — MVEE shut down" : "no");
    if (detected) {
      const DivergenceRecord& record = mvee.ghumvee()->divergences()[0];
      std::printf("verdict: %s\n", record.reason.c_str());
    }
    std::printf("secret exfiltrated: %s\n", exfiltrated_under_remon ? "YES" : "no");
    std::printf("(the gadget ran in the master, but the slave faulted at the same\n");
    std::printf(" instruction — GHUMVEE killed the replica set before the exploit's\n");
    std::printf(" open/write reached the file system)\n");
  }
  return detected && !exfiltrated_under_remon ? 0 : 1;
}

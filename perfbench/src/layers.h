// Per-layer metrics: counts read from SimStats and public accessors after a
// run, named after the src/ modules that do the work, and host timings of the
// public calls each layer makes per operation, at the sizes the run observed.

#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <string>
#include <vector>

#include "perfbench/src/trace.h"
#include "perfbench/src/worlds.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// Counts and ratios of one MVEE run, per completed request where a ratio has
// a request base. A ratio whose base is zero (the layer did not run) is 0.
void AddLayerCounts(const WorldRun& run, Metrics* out);

// The operation sizes a run observed, which the micro-timings reuse.
struct ObservedSizes {
  double entry_bytes = 0;        // Mean RB entry footprint.
  double write_bytes = 0;        // Mean reply a server writes per request.
  double frame_bytes = 0;        // Mean RB transport frame (0: no transport).
  double entries_per_frame = 0;  // Mean entry images per replayed frame.
  remon::PolicyLevel level = remon::PolicyLevel::kSocketRw;
};
ObservedSizes SizesOf(const Scenario& sc, const WorldRun& run);

// Host ns per call of the layers' public entry points at `sizes`; each timing
// also becomes a host-time span on track `tid` of trace process `pid`.
void AddMicroTimings(const ObservedSizes& sizes, TraceWriter* trace, int pid, int tid,
                     Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_

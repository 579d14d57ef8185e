#ifndef ZEROONE_PERFBENCH_TRACED_H_
#define ZEROONE_PERFBENCH_TRACED_H_

// The traced run: replays a workload's request streams in-process against
// a svc::Dispatcher configured like the server, recording spans from this
// benchmark's own code around the calls into each module's public
// functions. Spans stay in memory and are written once, at the end, as a
// Chrome trace; a layer's self time is its span's duration minus the time
// its child spans cover.

#include <cstddef>
#include <string>
#include <vector>

#include "bench.h"
#include "loadgen.h"

namespace zeroone {
namespace perfbench {

struct LayerValue {
  std::string name;
  double value = 0;
  std::string detail;  // Base of a ratio, sample count, or "not exercised".
};

struct TracedInputs {
  const Workload* workload = nullptr;
  std::string workdir;                 // Absolute; WAL probes go here.
  std::size_t server_width = 1;        // The server's intra-query width.
  double replay_seconds = 8;
  const WindowResult* window = nullptr;  // The untraced served window.
  std::string trace_path;              // Chrome trace output.
};

struct TracedResult {
  std::vector<LayerValue> values;
  std::vector<std::string> table;      // Per-layer self-time table lines.
  std::size_t replayed = 0;            // Requests replayed with spans.
  std::size_t replay_mismatches = 0;   // Replayed payloads off the oracle.
  // Distinct requests re-run at the hardware width, and those whose
  // payload was off the oracle (described).
  std::size_t wide_checked = 0;
  std::vector<std::string> wide_mismatches;
};

TracedResult RunTraced(const TracedInputs& inputs);

}  // namespace perfbench
}  // namespace zeroone

#endif  // ZEROONE_PERFBENCH_TRACED_H_

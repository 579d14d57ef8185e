#ifndef ZEROONE_PERFBENCH_LOADGEN_H_
#define ZEROONE_PERFBENCH_LOADGEN_H_

// Closed-loop load generation over ZO1: one thread and one connection per
// stream, each sending its next request only after the previous response
// arrived. Every response is checked against the oracle table.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"

namespace zeroone {
namespace perfbench {

struct Sample {
  std::size_t conn = 0;
  std::size_t op = 0;         // Index into the connection's stream.
  double latency_ms = 0;
  double done_ms = 0;         // Completion time since the window opened.
  Verdict verdict = Verdict::kCorrect;
  bool reordered = false;     // Correct rows, other order than the oracle.
  std::string received;       // Payload, kept only for failed operations.
  std::string status;         // Wire status name, or "no response".
};

struct WindowResult {
  std::vector<Sample> samples;  // Operations sent inside the window.
  double elapsed_s = 0;         // Window open to last completion.
};

// Runs every stream for `warmup_s` (unrecorded), waits until all
// connections are idle, calls `at_open`, runs `window_s` of recorded
// operations, lets in-flight ones finish, and calls `at_close`.
WindowResult RunWindow(const Workload& workload, int port, double warmup_s,
                       double window_s, const std::function<void()>& at_open,
                       const std::function<void()>& at_close);

}  // namespace perfbench
}  // namespace zeroone

#endif  // ZEROONE_PERFBENCH_LOADGEN_H_

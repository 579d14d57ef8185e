#ifndef ZEROONE_PERFBENCH_BENCH_H_
#define ZEROONE_PERFBENCH_BENCH_H_

// Shared types of the serving benchmark (perfbench/README.md): the request
// streams each workload replays, the oracle table that holds every expected
// payload, and the response checker.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "svc/protocol.h"

namespace zeroone {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Request classes; each end-to-end latency breakdown is over one class.
enum class OpClass { kRead, kMeasure, kWrite, kQuerySet };
const char* OpClassName(OpClass cls);

// One request of a connection's fixed stream.
struct Op {
  OpClass cls = OpClass::kRead;
  std::string session;        // Served session (@session=).
  std::string command;
  std::string args;
  bool no_cache = false;
  std::string label;          // Command family: naive, mu, certain, ...
  std::string shape;          // Instance shape (measure_exact), else "".
  std::string query;          // Query text in force, for failure listings.
  std::size_t expected = 0;   // Index into Workload::expected.
};

// A request line run once per session after each server start.
struct SetupLine {
  std::string session;
  std::string command;
  std::string args;
};

struct Workload {
  std::string name;
  std::vector<std::string> server_flags;   // Beyond --port/--http-port.
  bool needs_snapshot_dir = false;
  std::vector<SetupLine> setup;            // Loads every session.
  std::vector<std::vector<Op>> streams;    // One per connection.
  std::vector<std::uint64_t> think_ms;     // Per connection (closed loop).
  double warmup_s = 2.0;                   // Unrecorded, before the window.
  // The class whose latency is the workload's p50_ms / p95_ms.
  OpClass primary = OpClass::kRead;
  std::vector<std::string> expected;       // Oracle payloads.
  std::vector<std::string> notes;          // Printed in the report.
  std::vector<std::string> files;          // Generated .zo inputs.
};

svc::Request ToRequest(const Op& op, const std::string& id);

// Outcome of comparing one served response with the oracle payload.
enum class Verdict { kCorrect, kWrongPayload, kNotOk, kWrongId };
// Answer lists (`naive`, `certain`, `best`, ...) are sets of tuples, one
// "  (...)" line each, and the interpreter and the VM emit them in
// different orders; such payloads are compared as multisets of lines, so a
// duplicated or missing row is still wrong. `reordered` (optional) is set
// when the rows matched only up to order. Every other payload must match
// byte for byte.
Verdict CheckResponse(const svc::Response& response, const std::string& id,
                      const std::string& expected, bool* reordered = nullptr);
const char* VerdictName(Verdict verdict);

// Percentile by nearest rank over a copy of `values` (0 when empty).
double Percentile(std::vector<double> values, double p);

// Deterministic sub-seed derivation (splitmix64 over seed and a tag).
std::uint64_t SubSeed(std::uint64_t seed, const std::string& tag);

}  // namespace perfbench
}  // namespace zeroone

#endif  // ZEROONE_PERFBENCH_BENCH_H_

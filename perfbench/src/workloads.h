#ifndef ZEROONE_PERFBENCH_WORKLOADS_H_
#define ZEROONE_PERFBENCH_WORKLOADS_H_

// Seeded workload construction plus the oracle that fills every expected
// payload. The oracle is an in-process svc::Dispatcher run serially
// (par::SetParThreads(1), plan mode interpret) on the same generated
// inputs the server loads; nothing is taken from served output.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace zeroone {
namespace perfbench {

struct OracleReport {
  double seconds = 0;              // Wall time spent computing payloads.
  std::size_t requests = 0;        // Distinct requests evaluated.
  // Theorem 1 cross-check failures (mu = 1 must match naive membership);
  // each entry is a printable description.
  std::vector<std::string> inconsistencies;
};

// Builds `name` for `seed`, writing its .zo inputs under `workdir`
// (absolute). Returns false (with a message on stderr) for an unknown name
// or when the oracle rejects one of its own requests.
bool BuildWorkload(const std::string& name, std::uint64_t seed,
                   const std::string& workdir, Workload* workload,
                   OracleReport* report);

}  // namespace perfbench
}  // namespace zeroone

#endif  // ZEROONE_PERFBENCH_WORKLOADS_H_

// Checker self-test: planted wrong payloads next to a correct one. Only the
// wrong ones may be counted as failed. Exits non-zero on any disagreement.

#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using zeroone::perfbench::CheckResponse;
using zeroone::perfbench::Verdict;
using zeroone::perfbench::VerdictName;
using zeroone::svc::Response;
using zeroone::svc::WireStatus;

struct Case {
  const char* what;
  Response response;
  std::string expected;
  Verdict want;
};

}  // namespace

int main() {
  const std::vector<Case> cases = {
      {"correct Boolean answer", {WireStatus::kOk, "7", "  ()\n"}, "  ()\n",
       Verdict::kCorrect},
      {"duplicated () row", {WireStatus::kOk, "7", "  ()\n  ()\n"}, "  ()\n",
       Verdict::kWrongPayload},
      {"flipped mu", {WireStatus::kOk, "7", "mu = 0"}, "mu = 1",
       Verdict::kWrongPayload},
      {"correct mu", {WireStatus::kOk, "7", "mu = 1"}, "mu = 1",
       Verdict::kCorrect},
      {"rows in another order", {WireStatus::kOk, "7", "  (c2)\n  (c1)\n"},
       "  (c1)\n  (c2)\n", Verdict::kCorrect},
      {"reordered, one row twice",
       {WireStatus::kOk, "7", "  (c2)\n  (c1)\n  (c2)\n"},
       "  (c1)\n  (c2)\n", Verdict::kWrongPayload},
      {"reordered, one row missing", {WireStatus::kOk, "7", "  (c2)\n"},
       "  (c1)\n  (c2)\n", Verdict::kWrongPayload},
      {"mu value reordered text", {WireStatus::kOk, "7", "1 = mu"}, "mu = 1",
       Verdict::kWrongPayload},
      {"overloaded", {WireStatus::kOverloaded, "7", "queue full"}, "mu = 1",
       Verdict::kNotOk},
      {"answer for another request", {WireStatus::kOk, "8", "mu = 1"},
       "mu = 1", Verdict::kWrongId},
  };
  int mismatches = 0;
  std::size_t failed = 0;
  for (const Case& c : cases) {
    const Verdict got = CheckResponse(c.response, "7", c.expected);
    if (got != Verdict::kCorrect) ++failed;
    const bool ok = got == c.want;
    if (!ok) ++mismatches;
    std::printf("%-28s %-18s %s\n", c.what, VerdictName(got),
                ok ? "ok" : "MISMATCH");
  }
  std::printf("counted failed: %zu of %zu (want 7)\n", failed, cases.size());
  if (failed != 7) ++mismatches;
  return mismatches == 0 ? 0 : 1;
}

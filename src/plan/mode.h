#ifndef ZEROONE_PLAN_MODE_H_
#define ZEROONE_PLAN_MODE_H_

#include <cstdlib>
#include <string_view>

namespace zeroone {
namespace plan {

// The one evaluator switch. kCompiled is the production path: cost-based
// plans lowered to bytecode and run by the VM in src/plan, hash probes on
// bound columns, planner-chosen join and pattern orders. kInterpret is the
// definitional oracle the production path is held byte-identical to: a
// serial tree-walk of the formula over the full active domain (Defs 1–3),
// with full scans in the UCQ matcher, FD chase, homomorphism search and
// datalog joins, written orders everywhere. Selected once from the
// ZEROONE_PLAN environment variable ("interpret" picks the oracle),
// overridable in-process for tests.
enum class PlanMode { kCompiled, kInterpret };

namespace internal {

// Header-only so that libraries below zeroone_plan (zeroone_data's
// homomorphism search) can read the mode without a link cycle. An inline
// function's static is one object program-wide.
inline PlanMode& MutablePlanMode() {
  static PlanMode mode = [] {
    const char* env = std::getenv("ZEROONE_PLAN");
    return env != nullptr && std::string_view(env) == "interpret"
               ? PlanMode::kInterpret
               : PlanMode::kCompiled;
  }();
  return mode;
}

}  // namespace internal

// The process-wide plan mode (env default, or the last SetPlanMode).
inline PlanMode plan_mode() { return internal::MutablePlanMode(); }
// Overrides the plan mode; used by differential tests and benches that
// compare both paths inside one process. Not thread-safe against concurrent
// evaluation — call between evaluations only.
inline void SetPlanMode(PlanMode mode) { internal::MutablePlanMode() = mode; }

}  // namespace plan
}  // namespace zeroone

#endif  // ZEROONE_PLAN_MODE_H_

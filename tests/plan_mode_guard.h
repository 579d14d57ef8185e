#ifndef ZEROONE_TESTS_PLAN_MODE_GUARD_H_
#define ZEROONE_TESTS_PLAN_MODE_GUARD_H_

#include "plan/mode.h"

namespace zeroone {

// Pins the process-wide plan mode for a scope and restores the previous
// mode on exit.
class PlanModeGuard {
 public:
  explicit PlanModeGuard(plan::PlanMode mode) : previous_(plan::plan_mode()) {
    plan::SetPlanMode(mode);
  }
  ~PlanModeGuard() { plan::SetPlanMode(previous_); }
  PlanModeGuard(const PlanModeGuard&) = delete;
  PlanModeGuard& operator=(const PlanModeGuard&) = delete;

 private:
  plan::PlanMode previous_;
};

}  // namespace zeroone

#endif  // ZEROONE_TESTS_PLAN_MODE_GUARD_H_

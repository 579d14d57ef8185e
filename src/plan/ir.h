#ifndef ZEROONE_PLAN_IR_H_
#define ZEROONE_PLAN_IR_H_

// Logical plans for first-order evaluation (docs/planner.md).
//
// A QueryPlan is a normalized operator tree derived from a Formula against
// a concrete Database: ∧/∨ operands are reordered cheapest-and-most-
// selective-first, every quantifier is annotated with the cost-cheapest
// candidate atom that can restrict its range, and — in enumerate mode — the
// free variables become an explicit chain of output loops. Every choice the
// planner makes is among semantically equivalent alternatives, so plans
// produce byte-identical answers to the full-domain interpreter, the
// oracle of PlanMode::kInterpret (tests/plan_diff_test).
//
// Plans are built against one database snapshot: cardinality estimates and
// candidate choices bake in that snapshot's Relation::Stats(). The plan
// cache (plan/cache.h) therefore keys on the svc session version.

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/database.h"
#include "data/relation.h"
#include "query/formula.h"

namespace zeroone {
namespace plan {

// One column of a candidate-producing atom access, classified at plan time
// against the static binding environment of the quantifier it serves.
struct CandidateColumn {
  enum class Role {
    kConst,     // Fixed by a constant term: part of the probe key.
    kBoundVar,  // Fixed by an outer-bound variable: part of the probe key.
    kTarget,    // Holds the loop variable: produces candidate values.
    kWild,      // Unbound or shadowed variable: unconstrained.
  };
  Role role = Role::kWild;
  Value value;           // kConst.
  std::size_t var = 0;   // kBoundVar / kTarget / kWild.
};

// A positive atom whose rows bound the values a loop variable can take:
// values not occurring in a matching row under any extension cannot satisfy
// (∃/output) or refute (∀) the formula, so the loop iterates only them.
struct CandidateSource {
  std::string relation;
  std::vector<CandidateColumn> columns;
  Relation::Mask probe_mask = 0;  // Bits of the kConst/kBoundVar columns.
  double est_matches = 0.0;       // Cost-model estimate of matching rows.
};

struct PlanNode;
using PlanNodePtr = std::unique_ptr<PlanNode>;

struct PlanNode {
  enum class Op {
    kTrue,
    kFalse,
    kAtomCheck,  // Membership probe R(t̄), all terms resolved.
    kEquals,     // t₁ = t₂ under naive null semantics (Value::operator==).
    kNot,
    kAnd,        // Children in chosen evaluation order.
    kOr,         // Children in chosen evaluation order.
    kImplies,
    kExists,     // Loop over candidates (or the domain) until a witness.
    kForall,     // Loop over candidates (or the domain) until a refutation.
    kOutput,     // Free-variable loop level of an enumerate-mode plan.
  };

  Op op;
  std::string relation;                       // kAtomCheck.
  std::vector<Term> terms;                    // kAtomCheck / kEquals (2).
  std::size_t var = 0;                        // Loops.
  bool repeated_output = false;               // kOutput bound by an earlier
                                              // column; no loop emitted.
  std::optional<CandidateSource> candidates;  // Loops; nullopt = full domain.
  double est_matches = 0.0;                   // kAtomCheck estimate.
  double cost = 0.0;                          // Recursive cost (ordering key).
  std::vector<PlanNodePtr> children;
};

struct QueryPlan {
  PlanNodePtr root;     // kOutput chain wrapping the formula (enumerate
                        // mode) or the formula plan alone (membership mode).
  bool enumerate = false;
  std::vector<std::size_t> free_variables;
  std::size_t variable_count = 0;
  std::vector<std::string> variable_names;

  // Human-readable operator tree with atom orders, probe masks, and cost
  // estimates — the payload of `zeroone_cli --explain` and svc @explain=1.
  std::string ToString() const;
};

// Builds the cost-based logical plan of `formula` against `db`. In
// enumerate mode the plan's outer levels loop over `free_variables` in
// column order (the order answers are emitted in); in membership mode the
// free variables are inputs bound by the caller.
QueryPlan BuildQueryPlan(const Formula& formula,
                         const std::vector<std::size_t>& free_variables,
                         std::size_t variable_count,
                         std::vector<std::string> variable_names,
                         const Database& db, bool enumerate);

}  // namespace plan
}  // namespace zeroone

#endif  // ZEROONE_PLAN_IR_H_

#ifndef ZEROONE_QUERY_EVAL_H_
#define ZEROONE_QUERY_EVAL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/database.h"
#include "data/relation.h"
#include "data/tuple.h"
#include "data/valuation.h"
#include "query/query.h"

namespace zeroone {

namespace plan {
struct CompiledQuery;
}  // namespace plan

// First-order evaluation with active-domain semantics: quantifiers range
// over adom(D). Evaluation is purely syntactic on values — two values are
// equal iff they are the same constant or the same null. On complete
// databases this is standard FO evaluation; on incomplete databases it
// treats nulls as if they were distinct fresh constants, which by
// Proposition 1 / Definition 3 is exactly naïve evaluation. There is thus a
// single evaluator; NaiveEvaluate below is a documented alias.

// Environment binding variable ids to values during evaluation. Slot i holds
// the value of variable i, or nullopt when unbound.
using Environment = std::vector<std::optional<Value>>;

// Evaluates a formula under the given environment. All free variables of
// the formula must be bound in `env`. `domain` is the quantification domain
// (normally db.ActiveDomain(), precomputed by the caller).
bool EvaluateFormula(const Formula& formula, const Database& db,
                     const std::vector<Value>& domain, Environment* env);

// Q(D): all tuples ā over adom(D)^arity with D ⊨ Q(ā). For Boolean queries
// returns {()} (true) or {} (false). Exhaustive over adom^arity; intended
// for the exact small-instance computations at the heart of the measures.
std::vector<Tuple> EvaluateQuery(const Query& query, const Database& db);

// Renders the cost-based plan EvaluateQuery would run for `query` against
// `db` (operator tree, candidate atoms, index masks, estimates) without
// executing it. Always compiles fresh — estimates reflect the live
// database. See docs/planner.md; surfaced via `zeroone_cli --explain` and
// the svc `@explain=1` request option.
std::string ExplainQueryPlan(const Query& query, const Database& db);

// D ⊨ Q(ā): membership test without materializing all answers.
// Precondition: tuple.arity() == query.arity() and the tuple is over
// adom(D) ∪ constants.
bool EvaluateMembership(const Query& query, const Database& db,
                        const Tuple& tuple);

// As above, but quantifying over a caller-provided `domain` (normally a
// precomputed db.ActiveDomain()). Callers probing many tuples against one
// database should use this overload: the three-argument form recomputes the
// active domain on every call. A one-shot PreparedMembership.
bool EvaluateMembership(const Query& query, const Database& db,
                        const Tuple& tuple, const std::vector<Value>& domain);

// Membership in one query, asked of many databases of one schema: the
// exponential loops of core/ ask it of v(D) for every valuation v. The plan
// is resolved once, at construction, through the same scoped plan cache
// EvaluateMembership uses (compiled against `db`; a plan is valid for any
// database of the schema), and under PlanMode::kInterpret every call runs
// the interpreter. Calls are const and may run concurrently.
class PreparedMembership {
 public:
  PreparedMembership(const Query& query, const Database& db);

  // db ⊨ Q(tuple), quantifying over `domain` (normally db.ActiveDomain()).
  // Precondition: tuple.arity() == query.arity().
  bool operator()(const Database& db, const Tuple& tuple,
                  const std::vector<Value>& domain) const;

 private:
  Query query_;
  // Null under PlanMode::kInterpret.
  std::shared_ptr<const plan::CompiledQuery> compiled_;
};

// Applies a valuation to the value terms of a formula: every null value
// bound by `v` is replaced by its image. Needed when a tuple containing
// nulls has been substituted into a query and the combination v(ā), v(D)
// must be evaluated.
FormulaPtr ApplyValuationToFormula(const FormulaPtr& formula,
                                   const Valuation& v);

// Naïve evaluation (Definition 3): evaluates Q on D as if nulls were fresh
// distinct constants. Equal to v⁻¹(Q(v(D))) for any C-bijective valuation v
// (Proposition 1); answers may contain nulls.
std::vector<Tuple> NaiveEvaluate(const Query& query, const Database& db);

// Naïve membership: ā ∈ Q^naive(D).
bool NaiveMembership(const Query& query, const Database& db,
                     const Tuple& tuple);

// Reference implementation of Definition 3, used in tests to validate that
// the direct evaluator implements naïve evaluation: picks a C-bijective
// valuation v, computes Q(v(D)), and applies v⁻¹.
std::vector<Tuple> NaiveEvaluateViaBijection(const Query& query,
                                             const Database& db);

}  // namespace zeroone

#endif  // ZEROONE_QUERY_EVAL_H_

#ifndef ZEROONE_CORE_CONDITIONAL_H_
#define ZEROONE_CORE_CONDITIONAL_H_

#include <vector>

#include "common/polynomial.h"
#include "common/rational.h"
#include "constraints/constraint.h"
#include "constraints/fd.h"
#include "data/database.h"
#include "query/query.h"

namespace zeroone {

// Conditional measures under constraints (Section 4).
//
// µ(Q|Σ,D,ā) = lim_k |Supp^k(Σ ∧ Q(ā), D)| / |Supp^k(Σ, D)| — by Theorem 3
// the limit always exists and is a rational in [0,1]; by convention it is 0
// when Σ is unsatisfiable in D. Computed exactly with the
// partition-polynomial method: the limit is the ratio of leading
// coefficients (Proposition 5's FP^#P upper bound, exact here).

// Full diagnostic result of the exact computation.
struct ConditionalMeasure {
  Rational value;            // µ(Q|Σ,D,ā).
  Polynomial numerator;      // |Supp^k(Σ ∧ Q(ā), D)| as a polynomial in k.
  Polynomial denominator;    // |Supp^k(Σ, D)| as a polynomial in k.
  bool sigma_satisfiable = false;  // Σ satisfiable in D (denominator ≠ 0).
};

// Exact µ(Q|Σ,D,ā) where Σ is given as a Boolean query (use
// ConstraintSetQuery to compile a ConstraintSet).
ConditionalMeasure ComputeConditionalMu(const Query& query, const Query& sigma,
                                        const Database& db,
                                        const Tuple& tuple);

// Convenience overloads.
ConditionalMeasure ComputeConditionalMu(const Query& query,
                                        const ConstraintSet& constraints,
                                        const Database& db,
                                        const Tuple& tuple);
Rational ConditionalMu(const Query& query, const ConstraintSet& constraints,
                       const Database& db, const Tuple& tuple);
Rational ConditionalMu(const Query& query, const ConstraintSet& constraints,
                       const Database& db);  // Boolean Q.

// Finite-k conditional measure µ^k(Q|Σ,D,ā) by exhaustive enumeration
// (ground truth for tests; exponential). Returns 0 when Supp^k(Σ,D) = ∅,
// matching the paper's convention.
Rational ConditionalMuK(const Query& query, const Query& sigma,
                        const Database& db, const Tuple& tuple,
                        std::size_t k);

// µ(Σ → Q, D, ā): the measure of the implication, which Proposition 3 shows
// carries little information (it is 1 when µ(Σ,D) = 0, else µ(Q,D,ā)).
// Computed by Theorem 1 (naïve evaluation of ¬Σ ∨ Q).
int ImplicationMuLimit(const Query& query, const Query& sigma,
                       const Database& db, const Tuple& tuple);

// Theorem 5: for FD-only Σ, µ(Q|Σ,D,ā) = µ(Q, chase_Σ(D), ā) — so the
// conditional measure obeys a 0–1 law and is computable in polynomial time.
// Nulls in ā are first mapped through the chase's null mapping. Returns 0
// when the chase fails (Σ unsatisfiable in D, matching the convention) —
// and also when cancellation stopped it, so code that runs under a deadline
// calls ChaseFds and MuLimitAfterChase itself (core/exact_plan does).
int ConditionalMuViaChase(const Query& query,
                          const std::vector<FunctionalDependency>& fds,
                          const Database& db, const Tuple& tuple);

// The right-hand side of Theorem 5 for a successful chase: µ(Q,
// chase_Σ(D), ā) with ā's nulls mapped through chase.null_mapping.
int MuLimitAfterChase(const Query& query, const ChaseResult& chase,
                      const Tuple& tuple);

}  // namespace zeroone

#endif  // ZEROONE_CORE_CONDITIONAL_H_

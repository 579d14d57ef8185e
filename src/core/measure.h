#ifndef ZEROONE_CORE_MEASURE_H_
#define ZEROONE_CORE_MEASURE_H_

#include <vector>

#include "data/database.h"
#include "query/query.h"

namespace zeroone {

// The asymptotic measure µ(Q, D, ā) and the classical notions it refines.
//
// By Theorem 1 (the 0–1 law), for a generic query the limit
// µ(Q,D,ā) = lim_k µ^k(Q,D,ā) always exists, is 0 or 1, and equals 1 exactly
// when ā ∈ Q^naive(D). MuLimit therefore runs naïve evaluation — this is the
// cheap path; the exact finite-k machinery in support.h and the closed-form
// polynomial method in support_polynomial.h are used to *validate* this
// equality empirically in tests and benches.

// µ(Q, D, ā) ∈ {0, 1}.
int MuLimit(const Query& query, const Database& db, const Tuple& tuple);
int MuLimit(const Query& query, const Database& db);  // Boolean queries.

// ā is an almost certainly true answer (Definition 4): µ(Q,D,ā) = 1.
bool AlmostCertainlyTrue(const Query& query, const Database& db,
                         const Tuple& tuple);
// µ(Q,D,ā) = 0.
bool AlmostCertainlyFalse(const Query& query, const Database& db,
                          const Tuple& tuple);

// All almost-certainly-true answers — by Theorem 1, exactly Q^naive(D).
std::vector<Tuple> AlmostCertainAnswers(const Query& query,
                                        const Database& db);

// Certain answers with nulls (Section 2): ā with v(ā) ∈ Q(v(D)) for *every*
// valuation v. Decided exactly over the valuations of the m relevant nulls
// (of D, ā and Q) with range in A ∪ A_m, where A = C ∪ Const(D) ∪ the
// constants of ā and A_m holds m enumeration constants; genericity makes
// this restriction complete (the same argument as in the proof of
// Theorem 8 applies to any generic query and to violations). Genericity
// also makes membership constant on each orbit of that range under the
// permutations fixing A, so the search visits one point per orbit
// (ForEachBoundedPoint: Σ_t S(m,t)·Σ_j C(t,j)·(a)_j points rather than
// (a+m)^m), and every point under the oracle gate. Exponential in m.
bool IsCertainAnswer(const Query& query, const Database& db,
                     const Tuple& tuple);

// (Q, D): all certain answers over the active domain. Uses
// (Q,D) ⊆ Q^naive(D) (Corollary 1) to restrict candidates to naïve answers.
std::vector<Tuple> CertainAnswers(const Query& query, const Database& db);

// ā is a possible answer: Supp(Q,D,ā) ≠ ∅, decided with the same bounded
// search (one point per orbit of A ∪ A_m).
bool IsPossibleAnswer(const Query& query, const Database& db,
                      const Tuple& tuple);

// All possible answers over the active domain.
std::vector<Tuple> PossibleAnswers(const Query& query, const Database& db);

// All tuples over adom(D) of the given arity — the candidate space for
// query answers (queries return subsets of adom(D)^m). Exposed for the
// comparison machinery (Section 5), whose Best(Q,D) ranges over this space.
std::vector<Tuple> AllTuplesOverAdom(const Database& db, std::size_t arity);

}  // namespace zeroone

#endif  // ZEROONE_CORE_MEASURE_H_

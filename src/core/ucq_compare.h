#ifndef ZEROONE_CORE_UCQ_COMPARE_H_
#define ZEROONE_CORE_UCQ_COMPARE_H_

#include <vector>

#include "common/status.h"
#include "data/database.h"
#include "query/query.h"

namespace zeroone {

// Polynomial-time (data complexity) answer comparison for unions of
// conjunctive queries — Theorem 8. Naïve evaluation does not help here (the
// paper's R = {(1,⊥),(⊥,2)} example); instead Sep(Q,D,ā,b̄) is decided by a
// small-witness search:
//
// Sep(Q,D,ā,b̄) holds iff for some disjunct Q_i of Q there is an assignment
// of Q_i's atoms to tuples of D that unifies with ā on the free variables
// (a union-find over nulls, constants, and clause variables; two distinct
// constants in a class refute the assignment), such that the *most general*
// valuation v′ consistent with that unification — forced classes get their
// constants, every other null class a distinct fresh constant — satisfies
// v′(b̄) ∉ Q^naive(v′(D)).
//
// Choosing the most general v′ is complete: UCQs are preserved under the
// homomorphisms that specialize fresh constants, so if any valuation with
// the same forced unifications avoids membership of b̄, the most general
// one does. This mirrors the (∗) ⇔ (∗∗) characterization in the paper's
// proof (the subset D′ of ≤ p+k tuples is exactly the image of the atom
// assignment plus the tuples covering ā's components).
//
// Cost: Σ_i |D|^{p_i} assignments (with backtracking pruning) times a
// naïve-membership check — polynomial for a fixed query, versus the
// exponential-in-#nulls search needed for general FO (Theorem 6).
//
// All functions fail with an error status if the query is not a UCQ. The
// witness search and the best-answer pair loop poll the current CancelToken
// (common/cancel.h) and stop early once it fires; the result is then
// meaningless and the token's installer must discard it.

// Sep(Q,D,ā,b̄).
StatusOr<bool> UcqSeparates(const Query& query, const Database& db,
                            const Tuple& a, const Tuple& b);

// ā ⊴_{Q,D} b̄.
StatusOr<bool> UcqWeaklyDominated(const Query& query, const Database& db,
                                  const Tuple& a, const Tuple& b);

// ā ◁_{Q,D} b̄.
StatusOr<bool> UcqStrictlyDominated(const Query& query, const Database& db,
                                    const Tuple& a, const Tuple& b);

// Best(Q,D) restricted to the given candidates.
StatusOr<std::vector<Tuple>> UcqBestAnswersAmong(
    const Query& query, const Database& db,
    const std::vector<Tuple>& candidates);

// Best(Q,D) over adom(D)^arity.
StatusOr<std::vector<Tuple>> UcqBestAnswers(const Query& query,
                                            const Database& db);

// Best_µ(Q,D): best answers that are almost certainly true (Prop. 8's
// polynomial-time case).
StatusOr<std::vector<Tuple>> UcqBestMuAnswers(const Query& query,
                                              const Database& db);

}  // namespace zeroone

#endif  // ZEROONE_CORE_UCQ_COMPARE_H_

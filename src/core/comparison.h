#ifndef ZEROONE_CORE_COMPARISON_H_
#define ZEROONE_CORE_COMPARISON_H_

#include <cstddef>
#include <vector>

#include "data/database.h"
#include "query/query.h"

namespace zeroone {

// Qualitative comparison of answers by support inclusion (Section 5):
//
//   ā ⊴_{Q,D} b̄  ⇔  Supp(Q,D,ā) ⊆ Supp(Q,D,b̄)
//   ā ◁_{Q,D} b̄  ⇔  Supp(Q,D,ā) ⊂ Supp(Q,D,b̄)
//   Best(Q,D)    =  tuples with ⊆-maximal support.
//
// All decisions reduce to Sep(Q,D,ā,b̄): "Supp(ā) − Supp(b̄) ≠ ∅". For
// generic queries it suffices to search valuations whose range lies in
// A ∪ A_m, where A = C ∪ Const(D) (plus any constants of the compared
// tuples) and A_m is a set of m enumeration constants, m being the number
// of relevant nulls: composing any separating valuation with a suitable
// bijection fixing A lands its range in A ∪ A_m without changing either
// membership (the argument in the proof of Theorem 8, which only uses
// genericity). The same argument makes both memberships constant on each
// orbit of the range under the permutations fixing A, so the search visits
// one point per orbit — the (ρ, σ) points of Theorem 3's proof,
// Σ_t S(m,t)·Σ_j C(t,j)·(a)_j of them instead of (a+m)^m — and every
// point under the oracle gate (ForEachBoundedPoint). The search is
// exponential in m — matching the coNP/DP-completeness of Theorem 6 — and
// exact.

// Sep(Q,D,ā,b̄): does some valuation witness ā but not b̄?
bool Separates(const Query& query, const Database& db, const Tuple& a,
               const Tuple& b);

// ā ⊴_{Q,D} b̄ (b̄ has at least as much support).
bool WeaklyDominated(const Query& query, const Database& db, const Tuple& a,
                     const Tuple& b);

// ā ◁_{Q,D} b̄ (b̄ has strictly more support).
bool StrictlyDominated(const Query& query, const Database& db, const Tuple& a,
                       const Tuple& b);

// The support table over the shared bounded search: for each candidate
// tuple, which points witness it. A column is one point of the search:
// one orbit of A ∪ A_m in production, one valuation under the oracle gate.
// Membership is constant on an orbit, so support inclusion, and with it
// the dominance order, reads the same off either table. Computing it once
// makes all pairwise comparisons bitset-subset checks — the "parallel NP
// oracle calls" of Theorem 7's P^NP[log n] algorithm, materialized.
struct SupportTable {
  std::vector<Tuple> candidates;
  // support[i][j] == true iff point j witnesses candidates[i].
  std::vector<std::vector<bool>> support;
  // The number of points (columns).
  std::size_t valuation_count = 0;
};
SupportTable ComputeSupportTable(const Query& query, const Database& db,
                                 const std::vector<Tuple>& candidates);

// Best(Q,D) restricted to the given candidates: those ā with no b̄ among
// the candidates such that ā ◁ b̄.
std::vector<Tuple> BestAnswersAmong(const Query& query, const Database& db,
                                    const std::vector<Tuple>& candidates);

// Best(Q,D) over all tuples of adom(D)^arity.
std::vector<Tuple> BestAnswers(const Query& query, const Database& db);

// Best_µ(Q,D) (Section 5.2): best answers that are also almost certainly
// true (µ(Q,D,ā) = 1).
std::vector<Tuple> BestMuAnswers(const Query& query, const Database& db);

}  // namespace zeroone

#endif  // ZEROONE_CORE_COMPARISON_H_

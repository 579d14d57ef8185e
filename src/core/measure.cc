#include "core/measure.h"

#include <algorithm>
#include <cassert>

#include "core/valuation_engine.h"
#include "query/eval.h"

namespace zeroone {

int MuLimit(const Query& query, const Database& db, const Tuple& tuple) {
  return NaiveMembership(query, db, tuple) ? 1 : 0;
}

int MuLimit(const Query& query, const Database& db) {
  return MuLimit(query, db, Tuple{});
}

bool AlmostCertainlyTrue(const Query& query, const Database& db,
                         const Tuple& tuple) {
  return MuLimit(query, db, tuple) == 1;
}

bool AlmostCertainlyFalse(const Query& query, const Database& db,
                          const Tuple& tuple) {
  return MuLimit(query, db, tuple) == 0;
}

std::vector<Tuple> AlmostCertainAnswers(const Query& query,
                                        const Database& db) {
  return NaiveEvaluate(query, db);
}

namespace {

// Decides every candidate by the bounded search that is complete for
// certainty and possibility: valuations of Null(D) ∪ the candidates' nulls
// ∪ Q's nulls into A ∪ A_m, where A = C ∪ Const(D) ∪ the candidates'
// constants and A_m holds one enumeration constant per null (genericity;
// the argument of Theorem 8's proof), one point per orbit under the
// permutations fixing A (ForEachBoundedPoint). One walk serves all
// candidates, so each v(D) is built once. A candidate drops out at its
// first deciding point — a falsifying one when `certain`, a witnessing one
// otherwise — so it runs exactly the membership checks its own search
// would. Returns, per candidate, whether such a point exists.
std::vector<bool> FindDecidingPoints(const Query& query, const Database& db,
                                     const std::vector<Tuple>& candidates,
                                     bool certain) {
  std::vector<bool> decided(candidates.size(), false);
  if (candidates.empty()) return decided;
  QueryWitness witness(query, db);
  std::size_t open = candidates.size();
  ForEachBoundedPoint(query, db, candidates, [&](const ValuationImage& image) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (decided[i]) continue;
      if (witness(image, candidates[i]) != certain) {
        decided[i] = true;
        --open;
      }
    }
    return open > 0;
  });
  return decided;
}

}  // namespace

bool IsCertainAnswer(const Query& query, const Database& db,
                     const Tuple& tuple) {
  // Certain iff no valuation in the bounded space fails to witness.
  return !FindDecidingPoints(query, db, {tuple}, /*certain=*/true)[0];
}

bool IsPossibleAnswer(const Query& query, const Database& db,
                      const Tuple& tuple) {
  // Possible iff some valuation witnesses.
  return FindDecidingPoints(query, db, {tuple}, /*certain=*/false)[0];
}

std::vector<Tuple> CertainAnswers(const Query& query, const Database& db) {
  std::vector<Tuple> candidates = NaiveEvaluate(query, db);
  std::vector<bool> falsified =
      FindDecidingPoints(query, db, candidates, /*certain=*/true);
  std::vector<Tuple> result;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!falsified[i]) result.push_back(candidates[i]);
  }
  return result;
}

// All tuples over adom(D) of the given arity (odometer enumeration).
std::vector<Tuple> AllTuplesOverAdom(const Database& db, std::size_t arity) {
  std::vector<Value> adom = db.ActiveDomain();
  std::vector<Tuple> result;
  if (arity == 0) {
    result.push_back(Tuple{});
    return result;
  }
  if (adom.empty()) return result;
  std::vector<std::size_t> indices(arity, 0);
  while (true) {
    std::vector<Value> values;
    values.reserve(arity);
    for (std::size_t i : indices) values.push_back(adom[i]);
    result.push_back(Tuple(std::move(values)));
    std::size_t p = 0;
    while (p < arity && ++indices[p] == adom.size()) indices[p++] = 0;
    if (p == arity) break;
  }
  return result;
}

std::vector<Tuple> PossibleAnswers(const Query& query, const Database& db) {
  std::vector<Tuple> candidates = AllTuplesOverAdom(db, query.arity());
  std::vector<bool> witnessed =
      FindDecidingPoints(query, db, candidates, /*certain=*/false);
  std::vector<Tuple> result;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (witnessed[i]) result.push_back(candidates[i]);
  }
  return result;
}

}  // namespace zeroone

#include "core/comparison.h"

#include <cassert>

#include "core/measure.h"
#include "core/valuation_engine.h"
#include "query/eval.h"

namespace zeroone {

bool Separates(const Query& query, const Database& db, const Tuple& a,
               const Tuple& b) {
  assert(a.arity() == query.arity() && b.arity() == query.arity());
  QueryWitness witness(query, db);
  // Search for v ∈ Supp(a) − Supp(b); stop at the first.
  return !ForEachBoundedPoint(
      query, db, {a, b}, [&](const ValuationImage& image) {
        bool separating = witness(image, a) && !witness(image, b);
        return !separating;  // Keep going while not separating.
      });
}

bool WeaklyDominated(const Query& query, const Database& db, const Tuple& a,
                     const Tuple& b) {
  return !Separates(query, db, a, b);
}

bool StrictlyDominated(const Query& query, const Database& db, const Tuple& a,
                       const Tuple& b) {
  return !Separates(query, db, a, b) && Separates(query, db, b, a);
}

SupportTable ComputeSupportTable(const Query& query, const Database& db,
                                 const std::vector<Tuple>& candidates) {
  SupportTable table;
  table.candidates = candidates;
  table.support.assign(candidates.size(), {});
  QueryWitness witness(query, db);
  ForEachBoundedPoint(query, db, candidates, [&](const ValuationImage& image) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      table.support[i].push_back(witness(image, candidates[i]));
    }
    ++table.valuation_count;
    return true;
  });
  return table;
}

namespace {

// support[i] ⊆ support[j]?
bool SubsetOf(const std::vector<bool>& a, const std::vector<bool>& b) {
  for (std::size_t v = 0; v < a.size(); ++v) {
    if (a[v] && !b[v]) return false;
  }
  return true;
}

}  // namespace

std::vector<Tuple> BestAnswersAmong(const Query& query, const Database& db,
                                    const std::vector<Tuple>& candidates) {
  SupportTable table = ComputeSupportTable(query, db, candidates);
  std::vector<Tuple> best;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < candidates.size() && !dominated; ++j) {
      if (i == j) continue;
      // candidates[i] ◁ candidates[j]: strict support inclusion.
      dominated = SubsetOf(table.support[i], table.support[j]) &&
                  !SubsetOf(table.support[j], table.support[i]);
    }
    if (!dominated) best.push_back(candidates[i]);
  }
  return best;
}

std::vector<Tuple> BestAnswers(const Query& query, const Database& db) {
  return BestAnswersAmong(query, db, AllTuplesOverAdom(db, query.arity()));
}

std::vector<Tuple> BestMuAnswers(const Query& query, const Database& db) {
  std::vector<Tuple> best = BestAnswers(query, db);
  std::vector<Tuple> result;
  for (const Tuple& t : best) {
    if (NaiveMembership(query, db, t)) result.push_back(t);
  }
  return result;
}

}  // namespace zeroone

#ifndef ZEROONE_CORE_VALUATION_ENGINE_H_
#define ZEROONE_CORE_VALUATION_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/bigint.h"
#include "data/database.h"
#include "data/valuation_image.h"
#include "query/eval.h"
#include "query/query.h"

namespace zeroone {

// The per-valuation engine under every exponential loop of core/: µ^k and
// its variants, the Theorem 3 partition polynomial, the bounded searches
// behind certain/possible answers and Sep, the preference and OWA
// measures, sampling and the Theorem 8 search leaf. Exact µ is #P-hard
// (Props 5/6), so these loops stay exponential; the engine cuts the cost of
// each point:
// - v(D) is a ValuationImage built once per enumeration (once per worker
//   in parallel loops) and moved from point to point;
// - the query's plan is resolved once per enumeration (QueryWitness);
// - points are flat value arrays run by one odometer (ForEachPoint);
// - counts are machine-word tallies, folded into BigInt once.
//
// Oracle gate: under plan::PlanMode::kInterpret the image is materialized
// with Valuation::Apply at every point (ValuationImage::Mode::kMaterialize),
// so the reference path keeps checking the image against the definitions.

// The image mode the current plan mode asks for.
ValuationImage::Mode EngineImageMode();

// v(ā) ∈ Q(v(D)) at the image's current point: the one witness check of
// every loop. The plan is resolved at construction; a formula that mentions
// nulls is instead rewritten under the point at every call. Thread-safe.
class QueryWitness {
 public:
  QueryWitness(const Query& query, const Database& db);

  bool operator()(const ValuationImage& image, const Tuple& tuple) const;

 private:
  Query query_;
  bool formula_has_nulls_;
  PreparedMembership membership_;
};

// |Supp| and |V| of one enumeration, as machine words.
struct PointTally {
  std::uint64_t support = 0;
  std::uint64_t total = 0;
};

// The shared counter: visits every point of domain^(positions ≥ from) of
// `*point` (ForEachPoint), assigns it to `image`, and tallies the points
// `witness` accepts. Advances support.valuations_enumerated and
// support.witnesses_found by the tallies.
PointTally CountWitnessedPoints(
    ValuationImage* image, std::vector<Value>* point, std::size_t from,
    const std::vector<Value>& domain,
    const std::function<bool(const ValuationImage&)>& witness);

// A machine-word tally as a BigInt.
BigInt TallyToBigInt(std::uint64_t tally);

}  // namespace zeroone

#endif  // ZEROONE_CORE_VALUATION_ENGINE_H_

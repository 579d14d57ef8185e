#include "core/sampling.h"

#include <cassert>
#include <cmath>
#include <random>

#include "core/support.h"
#include "core/valuation_engine.h"

namespace zeroone {

MuEstimate EstimateMuK(const Query& query, const Database& db,
                       const Tuple& tuple, std::size_t k,
                       std::size_t samples, std::uint64_t seed) {
  assert(samples >= 1);
  SupportInstance instance = MakeSupportInstance(query, db, tuple);
  assert(k >= instance.prefix.size() &&
         "k must cover the enumeration prefix C ∪ Const(D)");
  GenericInstance generic = ToGenericInstance(instance, db);
  std::vector<Value> domain = MakeConstantEnumeration(instance.prefix, k);
  ValuationImage image(db, instance.nulls, EngineImageMode());
  std::vector<Value> point(instance.nulls.size());

  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, domain.size() - 1);
  MuEstimate result;
  result.samples = samples;
  for (std::size_t s = 0; s < samples; ++s) {
    for (Value& value : point) value = domain[pick(rng)];
    image.Assign(point);
    if (generic.witness(image)) ++result.witnesses;
  }
  result.estimate =
      static_cast<double>(result.witnesses) / static_cast<double>(samples);
  // Hoeffding 95% half-width: sqrt(ln(2/0.05) / (2n)).
  result.confidence95 =
      std::sqrt(std::log(2.0 / 0.05) / (2.0 * static_cast<double>(samples)));
  return result;
}

}  // namespace zeroone

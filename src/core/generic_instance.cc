#include "core/generic_instance.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>

#include "core/valuation_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/pool.h"

namespace zeroone {

GenericSupportCount CountGenericSupport(const GenericInstance& instance,
                                        const Database& db, std::size_t k) {
  assert(k >= instance.prefix.size() &&
         "k must cover the enumeration prefix C ∪ Const(D)");
  ZO_TRACE_SPAN("CountGenericSupport");
  std::vector<Value> domain = MakeConstantEnumeration(instance.prefix, k);
  ValuationImage image(db, instance.nulls, EngineImageMode());
  std::vector<Value> point(instance.nulls.size());
  PointTally tally =
      CountWitnessedPoints(&image, &point, 0, domain, instance.witness);
  return GenericSupportCount{TallyToBigInt(tally.support),
                             TallyToBigInt(tally.total)};
}

GenericSupportCount CountGenericSupportParallel(
    const GenericInstance& instance, const Database& db, std::size_t k,
    std::size_t threads) {
  assert(k >= instance.prefix.size() &&
         "k must cover the enumeration prefix C ∪ Const(D)");
  if (instance.nulls.empty() || threads <= 1) {
    return CountGenericSupport(instance, db, k);
  }
  ZO_TRACE_SPAN("CountGenericSupportParallel");
  std::vector<Value> domain = MakeConstantEnumeration(instance.prefix, k);
  // Shard on the first null's value; the remaining nulls enumerate inside
  // each shard. One shard per morsel on the work-stealing pool (which
  // re-installs the caller's CancelToken in every worker, so cancellation
  // still stops all shards); shards are independent, so per-morsel tallies
  // summed in morsel order reproduce the serial count exactly.
  par::ForOptions options;
  options.grain = 1;
  options.max_workers = threads;
  par::ForPlan morsels = par::PlanMorsels(domain.size(), options);
  std::vector<PointTally> partial(morsels.morsels);
  par::ParallelFor(morsels, [&](const par::Morsel& m, std::size_t) {
    ValuationImage image(db, instance.nulls, EngineImageMode());
    std::vector<Value> point(instance.nulls.size());
    for (std::size_t shard = m.begin; shard < m.end; ++shard) {
      point[0] = domain[shard];
      PointTally tally =
          CountWitnessedPoints(&image, &point, 1, domain, instance.witness);
      partial[m.index].support += tally.support;
      partial[m.index].total += tally.total;
    }
    return true;
  });
  PointTally total;
  for (const PointTally& p : partial) {
    total.support += p.support;
    total.total += p.total;
  }
  return GenericSupportCount{TallyToBigInt(total.support),
                             TallyToBigInt(total.total)};
}

Rational GenericMuK(const GenericInstance& instance, const Database& db,
                    std::size_t k) {
  GenericSupportCount count = CountGenericSupport(instance, db, k);
  if (count.total.is_zero()) return Rational(0);
  return Rational(count.support, count.total);
}

namespace {

// Shards per pool worker in the partition pass: slack for work stealing,
// since the shards' point counts differ.
constexpr std::size_t kShardsPerWorker = 4;

}  // namespace

GenericSupportPolynomial ComputeGenericSupportPolynomial(
    const GenericInstance& instance, const Database& db) {
  ZO_TRACE_SPAN("ComputeGenericSupportPolynomial");
  const std::size_t a = instance.prefix.size();
  const std::size_t m = instance.nulls.size();

  // One enumeration constant per potential free block, outside A, so
  // distinct free blocks receive distinct non-A values and each point
  // realizes its kernel partition exactly.
  const std::vector<Value> fresh =
      Value::EnumerationConstants(m, instance.prefix);

  // The orbit walk, one shard per morsel on the caller's width. Witnessed
  // points are tallied per free-block count f and per shard; the sums are
  // the same whichever worker ran which shard, so the polynomial is
  // byte-identical at every width.
  const std::size_t width = par::InParallelWorker() ? 1 : par::par_threads();
  par::ForOptions options;
  options.grain = 1;
  options.max_workers = width;
  par::ForPlan shards =
      par::PlanMorsels(width <= 1 ? 1 : kShardsPerWorker * width, options);
  std::vector<std::vector<std::uint64_t>> partial(
      shards.morsels, std::vector<std::uint64_t>(m + 1, 0));
  std::vector<std::unique_ptr<ValuationImage>> images(shards.workers);
  par::ParallelFor(shards, [&](const par::Morsel& shard, std::size_t worker) {
    std::unique_ptr<ValuationImage>& image = images[worker];
    if (image == nullptr) {
      image = std::make_unique<ValuationImage>(db, instance.nulls,
                                               EngineImageMode());
    }
    std::vector<std::uint64_t>& witnessed = partial[shard.index];
    std::vector<Value> point(m);
    return ForEachOrbitPoint(
        &point, instance.prefix, fresh,
        [&](std::size_t free_blocks) {
          image->Assign(point);
          if (instance.witness(*image)) ++witnessed[free_blocks];
          return true;
        },
        OrbitShard{shard.index, shards.morsels});
  });
  std::vector<std::uint64_t> tally(m + 1, 0);
  for (const std::vector<std::uint64_t>& shard : partial) {
    for (std::size_t f = 0; f <= m; ++f) tally[f] += shard[f];
  }
  // Each witnessed point realizes (k−a)_f valuations, added once per f.
  Polynomial result;
  std::uint64_t witnessed = 0;
  for (std::size_t f = 0; f <= m; ++f) {
    if (tally[f] == 0) continue;
    witnessed += tally[f];
    result += Polynomial::FallingFactorial(static_cast<std::int64_t>(a),
                                           static_cast<unsigned>(f)) *
              Rational(TallyToBigInt(tally[f]));
  }
  ZO_COUNTER_ADD("support.witnesses_found", witnessed);
  return GenericSupportPolynomial{std::move(result), a};
}

Rational GenericMuLimit(const GenericInstance& instance, const Database& db) {
  GenericSupportPolynomial support =
      ComputeGenericSupportPolynomial(instance, db);
  Polynomial total = Polynomial::Monomial(
      Rational(1), static_cast<unsigned>(instance.nulls.size()));
  return LimitOfRatio(support.count, total);
}

}  // namespace zeroone

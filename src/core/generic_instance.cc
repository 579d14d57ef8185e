#include "core/generic_instance.h"

#include <algorithm>
#include <cassert>

#include "common/partitions.h"
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

GenericSupportPolynomial ComputeGenericSupportPolynomial(
    const GenericInstance& instance, const Database& db) {
  ZO_TRACE_SPAN("ComputeGenericSupportPolynomial");
  const std::vector<Value>& a_set = instance.prefix;
  const std::size_t a = a_set.size();
  const std::size_t m = instance.nulls.size();

  // One globally fresh constant per potential free block; fresh constants
  // lie outside A and Const(D), so distinct free blocks receive distinct
  // non-A values, realizing the kernel partition exactly.
  std::vector<Value> fresh;
  fresh.reserve(m);
  for (std::size_t i = 0; i < m; ++i) fresh.push_back(Value::FreshConstant());

  // One tally per free-block count f; each witnessed point realizes
  // (k−a)_f valuations, added once per f below.
  std::vector<std::uint64_t> tally(m + 1, 0);
  std::uint64_t partitions = 0;
  std::uint64_t maps = 0;
  ValuationImage image(db, instance.nulls, EngineImageMode());
  std::vector<Value> point(m);
  std::vector<Value> block_value(m);
  ForEachSetPartition(m, [&](const SetPartition& partition) {
    ++partitions;
    const std::size_t t = partition.block_count;
    ForEachInjectivePartialMap(
        t, a, [&](const std::vector<std::size_t>& sigma) {
          ++maps;
          std::size_t free_blocks = 0;
          for (std::size_t b = 0; b < t; ++b) {
            block_value[b] = sigma[b] == kUnassigned ? fresh[free_blocks++]
                                                     : a_set[sigma[b]];
          }
          for (std::size_t i = 0; i < m; ++i) {
            point[i] = block_value[partition.blocks[i]];
          }
          image.Assign(point);
          if (instance.witness(image)) ++tally[free_blocks];
        });
  });
  Polynomial result;
  std::uint64_t witnessed = 0;
  for (std::size_t f = 0; f <= m; ++f) {
    if (tally[f] == 0) continue;
    witnessed += tally[f];
    result += Polynomial::FallingFactorial(static_cast<std::int64_t>(a),
                                           static_cast<unsigned>(f)) *
              Rational(TallyToBigInt(tally[f]));
  }
  ZO_COUNTER_ADD("support.partitions_enumerated", partitions);
  ZO_COUNTER_ADD("support.partition_maps_enumerated", maps);
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

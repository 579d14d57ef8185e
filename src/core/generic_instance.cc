#include "core/generic_instance.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>

#include "common/partitions.h"
#include "common/cancel.h"
#include "core/valuation_engine.h"
#include "fault/fault.h"
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

// One shard's share of the partition pass.
struct PartitionTally {
  std::vector<std::uint64_t> witnessed;  // By free-block count f.
  std::uint64_t partitions = 0;
  std::uint64_t maps = 0;
};

}  // namespace

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

  // Work item (ρ, σ(block 0)): each partition ρ has a + 1 of them (block 0
  // free, or mapped to one of A; the empty partition of m = 0 has one), and
  // the items are dealt round-robin in enumeration order to the shards,
  // one shard per morsel. Every shard walks the (cheap) partition sequence
  // and evaluates the points of its own items only, on its worker's
  // valuation image. Witnessed points are tallied per free-block count f
  // and per shard; the sums are the same whichever worker ran which shard,
  // so the polynomial is byte-identical at every width.
  const std::size_t width = par::InParallelWorker() ? 1 : par::par_threads();
  par::ForOptions options;
  options.grain = 1;
  options.max_workers = width;
  par::ForPlan shards =
      par::PlanMorsels(width <= 1 ? 1 : kShardsPerWorker * width, options);
  std::vector<PartitionTally> partial(shards.morsels);
  std::vector<std::unique_ptr<ValuationImage>> images(shards.workers);
  par::ParallelFor(shards, [&](const par::Morsel& shard, std::size_t worker) {
    std::unique_ptr<ValuationImage>& image = images[worker];
    if (image == nullptr) {
      image = std::make_unique<ValuationImage>(db, instance.nulls,
                                               EngineImageMode());
    }
    PartitionTally& tally = partial[shard.index];
    tally.witnessed.assign(m + 1, 0);
    std::vector<Value> point(m);
    std::vector<Value> block_value(m);
    std::size_t item = 0;
    bool stopped = false;
    ForEachSetPartition(m, [&](const SetPartition& partition) {
      const std::size_t t = partition.block_count;
      // first < a maps block 0 to a_set[first]; first == a leaves it free.
      for (std::size_t first = 0; first <= a; ++first) {
        if (stopped) return;
        if (t == 0 && first != a) continue;
        if (item++ % shards.morsels != shard.index) continue;
        if (first == a) ++tally.partitions;
        const std::size_t rest_range = first == a ? a : a - 1;
        ForEachInjectivePartialMap(
            t == 0 ? 0 : t - 1, rest_range,
            [&](const std::vector<std::size_t>& rest) {
              if (stopped) return;
              // The same fault site as ForEachPoint: a simulated failure
              // mid-enumeration cancels through the installed token.
              if (ZO_FAULT_POINT("core.valuation.cancel")) {
                if (CancelToken* token = CurrentCancelToken()) token->Cancel();
                stopped = true;
                return;
              }
              ++tally.maps;
              std::size_t free_blocks = 0;
              for (std::size_t b = 0; b < t; ++b) {
                // Blocks 1.. map into A without a_set[first].
                std::size_t target = b == 0 ? first : rest[b - 1];
                if (b > 0 && target != kUnassigned && target >= first) {
                  ++target;
                }
                block_value[b] =
                    target < a ? a_set[target] : fresh[free_blocks++];
              }
              for (std::size_t i = 0; i < m; ++i) {
                point[i] = block_value[partition.blocks[i]];
              }
              image->Assign(point);
              if (instance.witness(*image)) ++tally.witnessed[free_blocks];
            });
      }
    });
    return !stopped;
  });
  std::vector<std::uint64_t> tally(m + 1, 0);
  std::uint64_t partitions = 0;
  std::uint64_t maps = 0;
  for (const PartitionTally& shard : partial) {
    for (std::size_t f = 0; f < shard.witnessed.size(); ++f) {
      tally[f] += shard.witnessed[f];
    }
    partitions += shard.partitions;
    maps += shard.maps;
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

#include "core/valuation_engine.h"

#include <cassert>

#include "common/cancel.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "plan/mode.h"

namespace zeroone {

ValuationImage::Mode EngineImageMode() {
  return plan::plan_mode() == plan::PlanMode::kInterpret
             ? ValuationImage::Mode::kMaterialize
             : ValuationImage::Mode::kPatch;
}

QueryWitness::QueryWitness(const Query& query, const Database& db)
    : query_(query),
      formula_has_nulls_(!query.formula()->MentionedNulls().empty()),
      membership_(query, db) {}

bool QueryWitness::operator()(const ValuationImage& image,
                              const Tuple& tuple) const {
  Tuple valuated_tuple = image.Apply(tuple);
  if (!formula_has_nulls_) {
    return membership_(image.database(), valuated_tuple,
                       image.active_domain());
  }
  Query substituted(query_.name(), query_.free_variables(),
                    ApplyValuationToFormula(query_.formula(),
                                            image.ToValuation()),
                    query_.variable_names());
  return EvaluateMembership(substituted, image.database(), valuated_tuple,
                            image.active_domain());
}

PointTally CountWitnessedPoints(
    ValuationImage* image, std::vector<Value>* point, std::size_t from,
    const std::vector<Value>& domain,
    const std::function<bool(const ValuationImage&)>& witness) {
  PointTally tally;
  ForEachPoint(point, from, domain, [&] {
    image->Assign(*point);
    ++tally.total;
    if (witness(*image)) ++tally.support;
    return true;
  });
  ZO_COUNTER_ADD("support.valuations_enumerated", tally.total);
  ZO_COUNTER_ADD("support.witnesses_found", tally.support);
  return tally;
}

namespace {

// Work items per shard a sharded orbit walk aims for: slack for uneven
// subtrees.
constexpr std::uint64_t kItemsPerShard = 4;

// The depth whose walk nodes are a sharded walk's work items: the
// shallowest with at least kItemsPerShard items per shard, and at most the
// parents of the points, so an item is a run of neighbouring points.
std::size_t SplitDepth(std::size_t m, std::size_t a, std::size_t shards) {
  if (m == 0) return 0;
  // ways[b][u]: walk nodes at the current depth whose nulls open b blocks,
  // u of them mapped into A.
  std::vector<std::vector<std::uint64_t>> ways(
      m + 1, std::vector<std::uint64_t>(m + 1, 0));
  ways[0][0] = 1;
  for (std::size_t depth = 0; depth + 1 < m; ++depth) {
    std::uint64_t nodes = 0;
    for (const auto& row : ways) {
      for (std::uint64_t w : row) nodes += w;
    }
    if (nodes >= kItemsPerShard * shards) return depth;
    std::vector<std::vector<std::uint64_t>> next(
        m + 1, std::vector<std::uint64_t>(m + 1, 0));
    for (std::size_t b = 0; b < m; ++b) {
      for (std::size_t u = 0; u <= b; ++u) {
        const std::uint64_t w = ways[b][u];
        if (w == 0) continue;
        // The next null joins a block, opens one into A, or opens a free one.
        next[b][u] += w * b;
        if (u < a) next[b + 1][u + 1] += w * (a - u);
        next[b + 1][u] += w;
      }
    }
    ways = std::move(next);
  }
  return m - 1;
}

// The depth-first orbit walk: null i joins one of the blocks opened before
// it, or opens a block mapped to an unused constant of A, or opens a free
// block that takes the next fresh constant.
class OrbitWalk {
 public:
  OrbitWalk(std::vector<Value>* point, const std::vector<Value>& prefix,
            const std::vector<Value>& fresh,
            const std::function<bool(std::size_t)>& visit, OrbitShard shard)
      : point_(*point),
        prefix_(prefix),
        fresh_(fresh),
        visit_(visit),
        shard_(shard),
        split_(shard.count <= 1
                   ? 0
                   : SplitDepth(point->size(), prefix.size(), shard.count)),
        used_(prefix.size(), false) {
    assert(fresh.size() >= point->size() && "one fresh constant per null");
    blocks_.reserve(point->size());
  }

  bool Run() {
    const bool finished = Descend(0);
    ZO_COUNTER_ADD("support.partitions_enumerated", partitions_);
    ZO_COUNTER_ADD("support.partition_maps_enumerated", points_);
    return finished;
  }

 private:
  bool Descend(std::size_t i) {
    if (i == split_ && item_++ % shard_.count != shard_.index) return true;
    if (i == point_.size()) return Visit();
    // Join a block opened by an earlier null.
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      point_[i] = blocks_[b];
      if (!Descend(i + 1)) return false;
    }
    // Open a block mapped to an unused constant of A.
    for (std::size_t j = 0; j < prefix_.size(); ++j) {
      if (used_[j]) continue;
      used_[j] = true;
      ++used_count_;
      const bool go = Open(i, prefix_[j]);
      --used_count_;
      used_[j] = false;
      if (!go) return false;
    }
    // Open a free block.
    ++free_;
    const bool go = Open(i, fresh_[free_ - 1]);
    --free_;
    return go;
  }

  bool Open(std::size_t i, Value value) {
    blocks_.push_back(value);
    point_[i] = value;
    const bool go = Descend(i + 1);
    blocks_.pop_back();
    return go;
  }

  bool Visit() {
    if (CancellationRequested()) return false;
    // The fault site of ForEachPoint: a simulated failure mid-walk cancels
    // through the installed token.
    if (ZO_FAULT_POINT("core.valuation.cancel")) {
      if (CancelToken* token = CurrentCancelToken()) token->Cancel();
      return false;
    }
    ++points_;
    if (used_count_ == 0) ++partitions_;
    return visit_(free_);
  }

  std::vector<Value>& point_;
  const std::vector<Value>& prefix_;
  const std::vector<Value>& fresh_;
  const std::function<bool(std::size_t)>& visit_;
  const OrbitShard shard_;
  const std::size_t split_;
  std::vector<Value> blocks_;  // Each opened block's value.
  std::vector<bool> used_;     // Constants of A some block maps to.
  std::size_t used_count_ = 0;
  std::size_t free_ = 0;
  std::uint64_t item_ = 0;
  std::uint64_t points_ = 0;
  std::uint64_t partitions_ = 0;
};

}  // namespace

bool ForEachOrbitPoint(std::vector<Value>* point,
                       const std::vector<Value>& prefix,
                       const std::vector<Value>& fresh,
                       const std::function<bool(std::size_t)>& visit,
                       OrbitShard shard) {
  return OrbitWalk(point, prefix, fresh, visit, shard).Run();
}

bool ForEachBoundedPoint(
    const Query& query, const Database& db, const std::vector<Tuple>& tuples,
    const std::function<bool(const ValuationImage&)>& visit) {
  std::vector<Value> nulls = db.Nulls();
  std::vector<Value> prefix = query.GenericityConstants();
  AppendUnique(&prefix, db.Constants());
  for (const Tuple& t : tuples) {
    AppendUnique(&nulls, t.Nulls());
    for (Value v : t) {
      if (v.is_constant()) AppendUnique(&prefix, {v});
    }
  }
  AppendUnique(&nulls, query.formula()->MentionedNulls());
  ValuationImage image(db, nulls, EngineImageMode());
  std::vector<Value> point(nulls.size());
  std::vector<Value> fresh = Value::EnumerationConstants(nulls.size(), prefix);
  if (plan::plan_mode() != plan::PlanMode::kInterpret) {
    return ForEachOrbitPoint(&point, prefix, fresh, [&](std::size_t) {
      image.Assign(point);
      return visit(image);
    });
  }
  std::vector<Value> domain = prefix;
  domain.insert(domain.end(), fresh.begin(), fresh.end());
  std::uint64_t points = 0;
  const bool finished = ForEachPoint(&point, 0, domain, [&] {
    ++points;
    image.Assign(point);
    return visit(image);
  });
  ZO_COUNTER_ADD("support.valuations_enumerated", points);
  return finished;
}

BigInt TallyToBigInt(std::uint64_t tally) {
  // BigInt takes int64: split off the low bit so the top one survives.
  return BigInt(static_cast<std::int64_t>(tally >> 1)) * BigInt(2) +
         BigInt(static_cast<std::int64_t>(tally & 1));
}

}  // namespace zeroone

#include "core/support.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "core/valuation_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace zeroone {

SupportInstance MakeSupportInstance(const Query& query, const Database& db,
                                    const Tuple& tuple) {
  assert(tuple.arity() == query.arity() && "tuple arity mismatch");
  SupportInstance instance;
  instance.query = query;
  instance.tuple = tuple;
  instance.nulls = db.Nulls();
  AppendUnique(&instance.nulls, tuple.Nulls());
  AppendUnique(&instance.nulls, query.formula()->MentionedNulls());
  instance.prefix = query.GenericityConstants();
  AppendUnique(&instance.prefix, db.Constants());
  return instance;
}

GenericInstance ToGenericInstance(const SupportInstance& instance,
                                  const Database& db) {
  GenericInstance generic;
  generic.nulls = instance.nulls;
  generic.prefix = instance.prefix;
  auto witness = std::make_shared<const QueryWitness>(instance.query, db);
  generic.witness = [witness, tuple = instance.tuple](
                        const ValuationImage& image) {
    return (*witness)(image, tuple);
  };
  return generic;
}

SupportCount CountSupport(const SupportInstance& instance, const Database& db,
                          std::size_t k) {
  ZO_TRACE_SPAN("CountSupport");
  GenericSupportCount count =
      CountGenericSupport(ToGenericInstance(instance, db), db, k);
  return SupportCount{std::move(count.support), std::move(count.total)};
}

Rational MuK(const Query& query, const Database& db, const Tuple& tuple,
             std::size_t k) {
  SupportInstance instance = MakeSupportInstance(query, db, tuple);
  SupportCount count = CountSupport(instance, db, k);
  if (count.total.is_zero()) return Rational(0);
  return Rational(count.support, count.total);
}

Rational MuK(const Query& query, const Database& db, std::size_t k) {
  return MuK(query, db, Tuple{}, k);
}

Rational MuKParallel(const Query& query, const Database& db,
                     const Tuple& tuple, std::size_t k, std::size_t threads) {
  SupportInstance instance = MakeSupportInstance(query, db, tuple);
  GenericSupportCount count = CountGenericSupportParallel(
      ToGenericInstance(instance, db), db, k, threads);
  if (count.total.is_zero()) return Rational(0);
  return Rational(count.support, count.total);
}

BijectiveSupportCount CountBijectiveSupport(const SupportInstance& instance,
                                            const Database& db,
                                            std::size_t k) {
  assert(k >= instance.prefix.size() &&
         "k must cover the enumeration prefix C ∪ Const(D)");
  ZO_TRACE_SPAN("CountBijectiveSupport");
  std::vector<Value> domain = MakeConstantEnumeration(instance.prefix, k);
  QueryWitness witness(instance.query, db);
  ValuationImage image(db, instance.nulls, EngineImageMode());
  std::vector<Value> point(instance.nulls.size());
  PointTally tally;
  std::uint64_t bijective = 0;
  ForEachPoint(&point, 0, domain, [&] {
    ++tally.total;
    image.Assign(point);
    if (!image.ToValuation().IsBijectiveAvoiding(instance.prefix)) {
      return true;
    }
    ++bijective;
    if (witness(image, instance.tuple)) ++tally.support;
    return true;
  });
  ZO_COUNTER_ADD("support.valuations_enumerated", tally.total);
  ZO_COUNTER_ADD("support.witnesses_found", tally.support);
  return BijectiveSupportCount{TallyToBigInt(tally.support),
                               TallyToBigInt(bijective),
                               TallyToBigInt(tally.total)};
}

namespace {

// The distinct outcomes v(D) over the valuations of the instance's nulls
// into `domain` (V^k(D) for a k-constant enumeration), all and witnessed,
// each mapped through `outcome` first (the identity for m^k, the
// isomorphism type for ν^k); the ratio of their counts.
Rational OutcomeRatio(
    const SupportInstance& instance, const Database& db,
    const std::vector<Value>& domain,
    const std::function<Database(const Database&)>& outcome) {
  QueryWitness witness(instance.query, db);
  ValuationImage image(db, instance.nulls, EngineImageMode());
  std::vector<Value> point(instance.nulls.size());
  std::set<Database> all_outcomes;
  std::set<Database> witnessed_outcomes;
  std::uint64_t points = 0;
  ForEachPoint(&point, 0, domain, [&] {
    ++points;
    image.Assign(point);
    Database out = outcome(image.database());
    if (witness(image, instance.tuple)) witnessed_outcomes.insert(out);
    all_outcomes.insert(std::move(out));
    return true;
  });
  ZO_COUNTER_ADD("support.valuations_enumerated", points);
  if (all_outcomes.empty()) return Rational(0);
  return Rational(BigInt(static_cast<std::int64_t>(witnessed_outcomes.size())),
                  BigInt(static_cast<std::int64_t>(all_outcomes.size())));
}

}  // namespace

Rational MK(const Query& query, const Database& db, const Tuple& tuple,
            std::size_t k) {
  ZO_TRACE_SPAN("MK");
  SupportInstance instance = MakeSupportInstance(query, db, tuple);
  assert(k >= instance.prefix.size() &&
         "k must cover the enumeration prefix C ∪ Const(D)");
  return OutcomeRatio(instance, db,
                      MakeConstantEnumeration(instance.prefix, k),
                      [](const Database& valuated) { return valuated; });
}

Rational MK(const Query& query, const Database& db, std::size_t k) {
  return MK(query, db, Tuple{}, k);
}

namespace {

// Renames constants per the map (identity elsewhere).
Database RenameConstants(const Database& db,
                         const std::map<Value, Value>& renaming) {
  Database result(db.schema());
  for (const auto& [name, rel] : db.relations()) {
    Relation::Builder out(name, rel.arity());
    std::vector<Value> values(rel.arity());
    for (Relation::Row tuple : rel) {
      for (std::size_t i = 0; i < values.size(); ++i) {
        auto it = renaming.find(tuple[i]);
        values[i] = it == renaming.end() ? tuple[i] : it->second;
      }
      out.AddRow(values.data());
    }
    result.mutable_relation(name) = std::move(out).Build();
  }
  return result;
}

// Canonical representative of the A-fixing isomorphism type of a complete
// database: the minimum, under Database ordering, over all bijections from
// its non-A constants to a fixed slot list. The number of non-A constants
// is at most the null count, so the t! enumeration stays tiny.
Database CanonicalType(const Database& db, const std::set<Value>& a_set,
                       const std::vector<Value>& slots) {
  std::vector<Value> movable;
  for (Value v : db.Constants()) {
    if (a_set.count(v) == 0) movable.push_back(v);
  }
  assert(movable.size() <= slots.size());
  std::sort(movable.begin(), movable.end());
  Database best;
  bool first = true;
  std::vector<Value> permutation = movable;
  do {
    std::map<Value, Value> renaming;
    for (std::size_t i = 0; i < permutation.size(); ++i) {
      renaming[permutation[i]] = slots[i];
    }
    Database candidate = RenameConstants(db, renaming);
    if (first || candidate < best) {
      best = std::move(candidate);
      first = false;
    }
  } while (std::next_permutation(permutation.begin(), permutation.end()));
  if (first) return db;  // No movable constants.
  return best;
}

}  // namespace

Rational NuK(const Query& query, const Database& db, const Tuple& tuple,
             std::size_t k) {
  ZO_TRACE_SPAN("NuK");
  SupportInstance instance = MakeSupportInstance(query, db, tuple);
  assert(k >= instance.prefix.size() &&
         "k must cover the enumeration prefix C ∪ Const(D)");
  std::set<Value> a_set(instance.prefix.begin(), instance.prefix.end());
  // One draw of enumeration constants outside A: canonical slots, shared
  // across all outcomes, then the rest of the k-constant enumeration.
  const std::size_t m = instance.nulls.size();
  std::vector<Value> drawn = Value::EnumerationConstants(
      m + k - instance.prefix.size(), instance.prefix);
  std::vector<Value> slots(drawn.begin(), drawn.begin() + m);
  std::vector<Value> domain = instance.prefix;
  domain.insert(domain.end(), drawn.begin() + m, drawn.end());
  return OutcomeRatio(instance, db, domain, [&](const Database& valuated) {
    return CanonicalType(valuated, a_set, slots);
  });
}

Rational NuK(const Query& query, const Database& db, std::size_t k) {
  return NuK(query, db, Tuple{}, k);
}

}  // namespace zeroone

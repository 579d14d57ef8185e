#include "core/preference.h"

#include <map>
#include <set>

#include "core/support.h"
#include "core/valuation_engine.h"

namespace zeroone {

namespace {

// Validated, instance-aligned preference tables: tables[i] holds the
// (constant, weight) list for instance.nulls[i] (possibly empty).
struct AlignedPreferences {
  std::vector<std::vector<std::pair<Value, Rational>>> tables;
  std::vector<Rational> fallback_mass;  // 1 − Σ weights per null.
};

StatusOr<AlignedPreferences> Align(const SupportInstance& instance,
                                   const std::vector<NullPreference>& prefs) {
  std::map<Value, const NullPreference*> by_null;
  for (const NullPreference& pref : prefs) {
    if (!pref.null.is_null()) {
      return Status::Error("preference key " + pref.null.ToString() +
                           " is not a null");
    }
    if (!by_null.emplace(pref.null, &pref).second) {
      return Status::Error("duplicate preference table for " +
                           pref.null.ToString());
    }
    std::set<Value> seen;
    Rational mass(0);
    for (const auto& [constant, weight] : pref.weights) {
      if (!constant.is_constant()) {
        return Status::Error("preferred value " + constant.ToString() +
                             " is not a constant");
      }
      if (!seen.insert(constant).second) {
        return Status::Error("duplicate preferred constant " +
                             constant.ToString());
      }
      if (weight < Rational(0) || weight > Rational(1)) {
        return Status::Error("preference weight out of [0,1]");
      }
      mass += weight;
    }
    if (mass > Rational(1)) {
      return Status::Error("preference table mass exceeds 1 for " +
                           pref.null.ToString());
    }
  }
  AlignedPreferences aligned;
  aligned.tables.resize(instance.nulls.size());
  aligned.fallback_mass.assign(instance.nulls.size(), Rational(1));
  for (std::size_t i = 0; i < instance.nulls.size(); ++i) {
    auto it = by_null.find(instance.nulls[i]);
    if (it == by_null.end()) continue;
    aligned.tables[i] = it->second->weights;
    Rational mass(0);
    for (const auto& [constant, weight] : it->second->weights) mass += weight;
    aligned.fallback_mass[i] = Rational(1) - mass;
  }
  return aligned;
}

// The limit's branches: each null takes a preferred constant or a
// dedicated fresh constant; accumulate Π weights on witnessed branches.
struct LimitSearch {
  const SupportInstance& instance;
  const AlignedPreferences& aligned;
  const std::vector<Value>& fresh;
  QueryWitness witness;
  ValuationImage image;
  std::vector<Value> point;
  Rational total{0};

  void Sum(std::size_t index, const Rational& weight) {
    if (weight.is_zero()) return;
    if (index == instance.nulls.size()) {
      image.Assign(point);
      if (witness(image, instance.tuple)) total += weight;
      return;
    }
    for (const auto& [constant, w] : aligned.tables[index]) {
      point[index] = constant;
      Sum(index + 1, weight * w);
    }
    // Generic branch: a fresh constant unique to this null.
    point[index] = fresh[index];
    Sum(index + 1, weight * aligned.fallback_mass[index]);
  }
};

}  // namespace

StatusOr<Rational> PreferenceMuLimit(
    const Query& query, const Database& db, const Tuple& tuple,
    const std::vector<NullPreference>& prefs) {
  SupportInstance instance = MakeSupportInstance(query, db, tuple);
  StatusOr<AlignedPreferences> aligned = Align(instance, prefs);
  if (!aligned.ok()) return aligned.status();
  std::vector<Value> fresh =
      Value::EnumerationConstants(instance.nulls.size(), instance.prefix);
  LimitSearch search{instance,
                     *aligned,
                     fresh,
                     QueryWitness(query, db),
                     ValuationImage(db, instance.nulls, EngineImageMode()),
                     instance.nulls};
  search.Sum(0, Rational(1));
  return search.total;
}

StatusOr<Rational> PreferenceMuK(const Query& query, const Database& db,
                                 const Tuple& tuple,
                                 const std::vector<NullPreference>& prefs,
                                 std::size_t k) {
  SupportInstance instance = MakeSupportInstance(query, db, tuple);
  StatusOr<AlignedPreferences> aligned = Align(instance, prefs);
  if (!aligned.ok()) return aligned.status();
  // The enumeration must include A and every preferred constant.
  std::vector<Value> prefix = instance.prefix;
  for (const auto& table : aligned->tables) {
    for (const auto& [constant, weight] : table) {
      bool seen = false;
      for (Value existing : prefix) seen = seen || existing == constant;
      if (!seen) prefix.push_back(constant);
    }
  }
  if (k < prefix.size() + 1) {
    return Status::Error(
        "PreferenceMuK: k must cover A, all preferred constants, and at "
        "least one fallback constant");
  }
  std::vector<Value> domain = MakeConstantEnumeration(prefix, k);

  // Per-null per-domain-value probabilities.
  std::vector<std::map<Value, Rational>> preferred(instance.nulls.size());
  std::vector<Rational> fallback_each(instance.nulls.size(), Rational(0));
  for (std::size_t i = 0; i < instance.nulls.size(); ++i) {
    for (const auto& [constant, weight] : aligned->tables[i]) {
      preferred[i][constant] = weight;
    }
    std::size_t fallback_count = k - aligned->tables[i].size();
    fallback_each[i] =
        aligned->fallback_mass[i] /
        Rational(static_cast<std::int64_t>(fallback_count));
  }

  QueryWitness witness(query, db);
  ValuationImage image(db, instance.nulls, EngineImageMode());
  std::vector<Value> point(instance.nulls.size());
  Rational total(0);
  ForEachPoint(&point, 0, domain, [&] {
    Rational weight(1);
    for (std::size_t i = 0; i < instance.nulls.size(); ++i) {
      auto it = preferred[i].find(point[i]);
      weight *= it != preferred[i].end() ? it->second : fallback_each[i];
      if (weight.is_zero()) return true;
    }
    image.Assign(point);
    if (witness(image, instance.tuple)) total += weight;
    return true;
  });
  return total;
}

}  // namespace zeroone

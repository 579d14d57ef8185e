#include "data/valuation.h"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <set>

#include "common/cancel.h"
#include "fault/fault.h"

namespace zeroone {

void Valuation::Bind(Value null, Value constant) {
  assert(null.is_null() && "valuation domain must be nulls");
  assert(constant.is_constant() && "valuation range must be constants");
  assignment_[null] = constant;
}

bool Valuation::IsBound(Value null) const {
  return assignment_.count(null) != 0;
}

Value Valuation::ValueOf(Value null) const {
  auto it = assignment_.find(null);
  assert(it != assignment_.end() && "null not bound by valuation");
  return it->second;
}

Value Valuation::Apply(Value value) const {
  if (!value.is_null()) return value;
  auto it = assignment_.find(value);
  return it == assignment_.end() ? value : it->second;
}

Tuple Valuation::Apply(const Tuple& tuple) const {
  std::vector<Value> values;
  values.reserve(tuple.arity());
  for (Value v : tuple) values.push_back(Apply(v));
  return Tuple(std::move(values));
}

Database Valuation::Apply(const Database& db) const {
  Database result(db.schema());
  for (const auto& [name, rel] : db.relations()) {
    Relation::Builder out(name, rel.arity());
    std::vector<Value> values(rel.arity());
    for (Relation::Row tuple : rel) {
      for (std::size_t i = 0; i < values.size(); ++i) {
        values[i] = Apply(tuple[i]);
      }
      out.AddRow(values.data());
    }
    result.mutable_relation(name) = std::move(out).Build();
  }
  return result;
}

std::vector<Value> Valuation::Range() const {
  std::set<Value> range;
  for (const auto& [null, constant] : assignment_) range.insert(constant);
  return std::vector<Value>(range.begin(), range.end());
}

bool Valuation::IsBijectiveAvoiding(const std::vector<Value>& forbidden) const {
  std::set<Value> seen;
  for (const auto& [null, constant] : assignment_) {
    if (!seen.insert(constant).second) return false;  // Not injective.
    if (std::find(forbidden.begin(), forbidden.end(), constant) !=
        forbidden.end()) {
      return false;
    }
  }
  return true;
}

std::string Valuation::ToString() const {
  std::string result = "{";
  bool first = true;
  for (const auto& [null, constant] : assignment_) {
    if (!first) result += ", ";
    first = false;
    result += null.ToString() + " ↦ " + constant.ToString();
  }
  result += "}";
  return result;
}

std::ostream& operator<<(std::ostream& os, const Valuation& valuation) {
  return os << valuation.ToString();
}

Valuation MakeBijectiveValuation(const Database& db) {
  Valuation v;
  for (Value null : db.Nulls()) v.Bind(null, Value::FreshConstant());
  return v;
}

bool ForEachPoint(std::vector<Value>* point, std::size_t from,
                  const std::vector<Value>& domain,
                  const std::function<bool()>& visit) {
  const std::size_t m = point->size();
  if (from >= m) return visit();
  assert(!domain.empty() && "cannot valuate nulls over an empty domain");
  if (domain.empty()) return true;
  // Odometer over domain indices, least significant digit first.
  std::vector<std::size_t> indices(m, 0);
  for (std::size_t i = from; i < m; ++i) (*point)[i] = domain[0];
  while (true) {
    // Cooperative cancellation: a cancelled enumeration stops early and
    // reports false; the token's installer discards the partial result.
    if (CancellationRequested()) return false;
    if (ZO_FAULT_POINT("core.valuation.cancel")) {
      // Simulated mid-enumeration failure: cancel through the installed
      // token so the existing discard-partial-result machinery fires (the
      // serving layer answers DEADLINE_EXCEEDED). Without a token this is
      // a plain early stop, which every caller already tolerates.
      if (CancelToken* token = CurrentCancelToken()) token->Cancel();
      return false;
    }
    if (!visit()) return false;
    std::size_t position = from;
    while (position < m) {
      if (++indices[position] < domain.size()) {
        (*point)[position] = domain[indices[position]];
        break;
      }
      indices[position] = 0;
      (*point)[position] = domain[0];
      ++position;
    }
    if (position == m) return true;  // Odometer wrapped.
  }
}

bool ForEachValuationUntil(
    const std::vector<Value>& nulls, const std::vector<Value>& domain,
    const std::function<bool(const Valuation&)>& visitor) {
  std::vector<Value> point(nulls.size());
  Valuation valuation;
  return ForEachPoint(&point, 0, domain, [&] {
    for (std::size_t i = 0; i < nulls.size(); ++i) {
      valuation.Bind(nulls[i], point[i]);
    }
    return visitor(valuation);
  });
}

void ForEachValuation(const std::vector<Value>& nulls,
                      const std::vector<Value>& domain,
                      const std::function<void(const Valuation&)>& visitor) {
  ForEachValuationUntil(nulls, domain, [&](const Valuation& v) {
    visitor(v);
    return true;
  });
}

}  // namespace zeroone

#ifndef ZEROONE_DATA_VALUATION_H_
#define ZEROONE_DATA_VALUATION_H_

#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "data/database.h"
#include "data/tuple.h"
#include "data/value.h"

namespace zeroone {

// A valuation v : Null(D) → Const assigning constant values to nulls
// (Section 2). Applying a valuation to tuples and databases replaces each
// null ⊥ in its domain by v(⊥); nulls outside the domain are left in place
// (the paper's v(D) always has total domain, but partial application is
// needed by the Theorem 8 algorithm, where v′ is defined only on D′).
class Valuation {
 public:
  Valuation() = default;

  // Binds v(null) = constant. Precondition: null.is_null() and
  // constant.is_constant(). Rebinding an already-bound null overwrites.
  void Bind(Value null, Value constant);

  bool IsBound(Value null) const;
  // Precondition: IsBound(null).
  Value ValueOf(Value null) const;

  std::size_t size() const { return assignment_.size(); }
  const std::map<Value, Value>& assignment() const { return assignment_; }

  // v(x): the bound constant for a bound null; x itself otherwise
  // (constants map to themselves).
  Value Apply(Value value) const;
  Tuple Apply(const Tuple& tuple) const;
  Database Apply(const Database& db) const;

  // range(v): the distinct constants in the image, in deterministic order.
  std::vector<Value> Range() const;

  // True iff v is injective and its range avoids all of `forbidden`
  // (Definition 2: C-bijective when `forbidden` is Const(D) ∪ C).
  bool IsBijectiveAvoiding(const std::vector<Value>& forbidden) const;

  // "{⊥1 ↦ a, ⊥2 ↦ b}".
  std::string ToString() const;

  friend bool operator==(const Valuation& a, const Valuation& b) {
    return a.assignment_ == b.assignment_;
  }
  friend bool operator<(const Valuation& a, const Valuation& b) {
    return a.assignment_ < b.assignment_;
  }

 private:
  std::map<Value, Value> assignment_;
};

std::ostream& operator<<(std::ostream& os, const Valuation& valuation);

// Constructs a C-bijective valuation for D (Definition 2): assigns to each
// null of D a globally fresh constant, so the range is automatically
// disjoint from Const(D) and any C. Used to implement naïve evaluation
// (Definition 3).
Valuation MakeBijectiveValuation(const Database& db);

// The odometer under every valuation enumeration: visits each point of
// domain^(m − from) over positions [from, m) of `*point` (m =
// point->size()), in odometer order with position `from` the fastest digit,
// holding positions below `from` at their current values. `*point` is
// updated in place before each visit; with from == m there is one point,
// visited without polling. Otherwise polls the thread's CancelToken and
// the core.valuation.cancel fault point before each visit. Returns false
// iff a visit returned false or the enumeration was cancelled.
bool ForEachPoint(std::vector<Value>* point, std::size_t from,
                  const std::vector<Value>& domain,
                  const std::function<bool()>& visit);

// Enumerates V^k(D) restricted to the given nulls: every total map from
// `nulls` into `domain` (|domain|^|nulls| valuations). The visited object is
// reused between calls; copy it if kept. Enumeration order is the odometer
// order over `domain` positions, deterministic.
void ForEachValuation(const std::vector<Value>& nulls,
                      const std::vector<Value>& domain,
                      const std::function<void(const Valuation&)>& visitor);

// Like ForEachValuation but stops early when the visitor returns false.
// Returns false iff some visitor call returned false.
bool ForEachValuationUntil(const std::vector<Value>& nulls,
                           const std::vector<Value>& domain,
                           const std::function<bool(const Valuation&)>& visitor);

}  // namespace zeroone

#endif  // ZEROONE_DATA_VALUATION_H_

#include "core/support_polynomial.h"

#include <cassert>

#include "core/generic_instance.h"
#include "core/support.h"
#include "obs/trace.h"

namespace zeroone {

SupportPolynomial ComputeSupportPolynomial(
    const Query& query, const Database& db, const Tuple& tuple,
    const std::vector<Value>& extra_prefix) {
  ZO_TRACE_SPAN("ComputeSupportPolynomial");
  SupportInstance instance = MakeSupportInstance(query, db, tuple);
  for (Value v : extra_prefix) {
    bool seen = false;
    for (Value existing : instance.prefix) seen = seen || existing == v;
    if (!seen) {
      assert(v.is_constant() && "extra prefix values must be constants");
      instance.prefix.push_back(v);
    }
  }
  GenericSupportPolynomial generic =
      ComputeGenericSupportPolynomial(ToGenericInstance(instance, db), db);
  return SupportPolynomial{std::move(generic.count), generic.valid_from};
}

Polynomial TotalCountPolynomial(const Database& db) {
  return Polynomial::Monomial(Rational(1),
                              static_cast<unsigned>(db.Nulls().size()));
}

Rational MuViaPolynomial(const Query& query, const Database& db,
                         const Tuple& tuple) {
  SupportPolynomial support = ComputeSupportPolynomial(query, db, tuple);
  SupportInstance instance = MakeSupportInstance(query, db, tuple);
  Polynomial total = Polynomial::Monomial(
      Rational(1), static_cast<unsigned>(instance.nulls.size()));
  return LimitOfRatio(support.count, total);
}

}  // namespace zeroone

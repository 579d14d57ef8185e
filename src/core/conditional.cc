#include "core/conditional.h"

#include <cassert>

#include "core/measure.h"
#include "core/support.h"
#include "core/support_polynomial.h"
#include "query/eval.h"

namespace zeroone {

namespace {

// Σ ∧ Q(ā) as a single Boolean query. Both inputs are closed after
// substitution, so sharing variable ids is harmless (each quantifier scopes
// its own occurrences).
Query ConjoinWithSigma(const Query& query, const Query& sigma,
                       const Tuple& tuple) {
  assert(sigma.is_boolean() && "constraints must form a Boolean query");
  Query substituted = query.is_boolean() ? query : query.Substitute(tuple);
  FormulaPtr conjunction =
      Formula::And(sigma.formula(), substituted.formula());
  return Query(sigma.name() + "&" + substituted.name(), {}, conjunction,
               substituted.variable_names());
}

}  // namespace

ConditionalMeasure ComputeConditionalMu(const Query& query, const Query& sigma,
                                        const Database& db,
                                        const Tuple& tuple) {
  ConditionalMeasure result;
  Query conjunction = ConjoinWithSigma(query, sigma, tuple);
  // Use a shared prefix A so both polynomials are computed over the same
  // enumeration (the polynomials themselves are prefix-independent).
  std::vector<Value> shared_prefix = conjunction.GenericityConstants();
  result.numerator =
      ComputeSupportPolynomial(conjunction, db, Tuple{}, shared_prefix).count;
  result.denominator =
      ComputeSupportPolynomial(sigma, db, Tuple{}, shared_prefix).count;
  // Both counts must range over the same valuation space. If ā mentions
  // nulls outside Null(D) (not the usual adom(D) case), the numerator space
  // has e extra nulls; Σ does not constrain them, so the denominator count
  // over the joint space is |Supp^k(Σ,D)| · k^e.
  std::size_t numerator_nulls =
      MakeSupportInstance(conjunction, db, Tuple{}).nulls.size();
  std::size_t sigma_nulls = MakeSupportInstance(sigma, db, Tuple{}).nulls.size();
  assert(numerator_nulls >= sigma_nulls);
  if (numerator_nulls > sigma_nulls) {
    result.denominator *= Polynomial::Monomial(
        Rational(1), static_cast<unsigned>(numerator_nulls - sigma_nulls));
  }
  result.sigma_satisfiable = !result.denominator.is_zero();
  if (!result.sigma_satisfiable) {
    result.value = Rational(0);  // Paper convention for unsatisfiable Σ.
    return result;
  }
  result.value = LimitOfRatio(result.numerator, result.denominator);
  return result;
}

ConditionalMeasure ComputeConditionalMu(const Query& query,
                                        const ConstraintSet& constraints,
                                        const Database& db,
                                        const Tuple& tuple) {
  return ComputeConditionalMu(query, ConstraintSetQuery(constraints), db,
                              tuple);
}

Rational ConditionalMu(const Query& query, const ConstraintSet& constraints,
                       const Database& db, const Tuple& tuple) {
  return ComputeConditionalMu(query, constraints, db, tuple).value;
}

Rational ConditionalMu(const Query& query, const ConstraintSet& constraints,
                       const Database& db) {
  return ConditionalMu(query, constraints, db, Tuple{});
}

Rational ConditionalMuK(const Query& query, const Query& sigma,
                        const Database& db, const Tuple& tuple,
                        std::size_t k) {
  Query conjunction = ConjoinWithSigma(query, sigma, tuple);
  // Evaluate both counts over the same enumeration: extend the conjunction
  // instance's prefix (which includes both queries' constants).
  SupportInstance conjunction_instance =
      MakeSupportInstance(conjunction, db, Tuple{});
  SupportInstance sigma_instance = MakeSupportInstance(sigma, db, Tuple{});
  sigma_instance.prefix = conjunction_instance.prefix;
  sigma_instance.nulls = conjunction_instance.nulls;
  SupportCount numerator = CountSupport(conjunction_instance, db, k);
  SupportCount denominator = CountSupport(sigma_instance, db, k);
  if (denominator.support.is_zero()) return Rational(0);
  return Rational(numerator.support, denominator.support);
}

int ImplicationMuLimit(const Query& query, const Query& sigma,
                       const Database& db, const Tuple& tuple) {
  Query substituted = query.is_boolean() ? query : query.Substitute(tuple);
  Query implication(
      "implies", {},
      Formula::Implies(sigma.formula(), substituted.formula()),
      substituted.variable_names());
  return MuLimit(implication, db, Tuple{});
}

int ConditionalMuViaChase(const Query& query,
                          const std::vector<FunctionalDependency>& fds,
                          const Database& db, const Tuple& tuple) {
  ChaseResult chase = ChaseFds(fds, db);
  if (!chase.success) return 0;
  return MuLimitAfterChase(query, chase, tuple);
}

int MuLimitAfterChase(const Query& query, const ChaseResult& chase,
                      const Tuple& tuple) {
  assert(chase.success && "Theorem 5 needs a chase that reached a fixpoint");
  // Map the tuple's nulls through the chase (Theorem 5 is stated for
  // constant tuples; the natural extension maps merged/renamed nulls to
  // their representatives).
  std::vector<Value> mapped;
  mapped.reserve(tuple.arity());
  for (Value v : tuple) {
    auto it = chase.null_mapping.find(v);
    mapped.push_back(it == chase.null_mapping.end() ? v : it->second);
  }
  return MuLimit(query, chase.database, Tuple(std::move(mapped)));
}

}  // namespace zeroone

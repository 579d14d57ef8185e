#include "core/valuation_engine.h"

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

BigInt TallyToBigInt(std::uint64_t tally) {
  // BigInt takes int64: split off the low bit so the top one survives.
  return BigInt(static_cast<std::int64_t>(tally >> 1)) * BigInt(2) +
         BigInt(static_cast<std::int64_t>(tally & 1));
}

}  // namespace zeroone

#include "core/exact_plan.h"

#include <algorithm>
#include <cassert>
#include <string_view>
#include <utility>

#include "common/parse.h"
#include "constraints/fd.h"
#include "core/comparison.h"
#include "core/conditional.h"
#include "core/measure.h"
#include "core/support.h"
#include "core/support_polynomial.h"
#include "core/ucq_compare.h"
#include "obs/metrics.h"
#include "par/pool.h"
#include "plan/mode.h"
#include "query/eval.h"
#include "query/fragments.h"
#include "query/parser.h"

namespace zeroone {

namespace {

bool FormulaHasNulls(const Query& query) {
  return !query.formula()->MentionedNulls().empty();
}

// Every null of the tuples is a null of D. The theorems speak about
// µ(Q,D,ā) over the valuations of D; a tuple null outside Null(D) adds a
// free dimension that only the enumerators account for.
bool TupleNullsInDatabase(const Database& db,
                          const std::vector<Tuple>& tuples) {
  std::vector<Value> db_nulls;
  for (const Tuple& t : tuples) {
    for (Value v : t.Nulls()) {
      if (db_nulls.empty()) db_nulls = db.Nulls();
      if (std::find(db_nulls.begin(), db_nulls.end(), v) == db_nulls.end()) {
        return false;
      }
    }
  }
  return true;
}

// Σ's FDs, when Σ consists of FDs only.
bool FdsOnly(const ConstraintSet& constraints,
             std::vector<FunctionalDependency>* fds) {
  for (const ConstraintPtr& c : constraints) {
    const auto* fd = dynamic_cast<const FunctionalDependency*>(c.get());
    if (fd == nullptr) return false;
    if (fds != nullptr) fds->push_back(*fd);
  }
  return true;
}

void Count(ExactAlgorithm algorithm) {
  switch (algorithm) {
    case ExactAlgorithm::kEnumerator:
      ZO_COUNTER_INC("core.exact.enumerator");
      break;
    case ExactAlgorithm::kNaive:
      ZO_COUNTER_INC("core.exact.naive");
      break;
    case ExactAlgorithm::kChase:
      ZO_COUNTER_INC("core.exact.chase");
      break;
    case ExactAlgorithm::kUcq:
      ZO_COUNTER_INC("core.exact.ucq");
      break;
    case ExactAlgorithm::kPoly:
      ZO_COUNTER_INC("core.exact.poly");
      break;
  }
}

// The choice with the oracle gate applied.
ExactAlgorithm Plan(ExactCommand command, const Query& query,
                    const ConstraintSet& constraints, const Database& db,
                    const ExactArgs& args, ExactAlgorithm* used) {
  ExactAlgorithm algorithm =
      plan::plan_mode() == plan::PlanMode::kInterpret
          ? ExactAlgorithm::kEnumerator
          : ChooseExactAlgorithm(command, query, constraints, db, args);
  Count(algorithm);
  if (used != nullptr) *used = algorithm;
  return algorithm;
}

template <typename T>
T ValueOf(StatusOr<T> result) {
  // The Theorem 8 functions fail only on non-UCQs, which the choice rules
  // out.
  assert(result.ok());
  return std::move(result).value();
}

}  // namespace

bool ParseExactCommand(const std::string& name, ExactCommand* command) {
  static const std::pair<const char*, ExactCommand> kCommands[] = {
      {"certain", ExactCommand::kCertain}, {"cond", ExactCommand::kCond},
      {"best", ExactCommand::kBest},       {"bestmu", ExactCommand::kBestMu},
      {"compare", ExactCommand::kCompare}, {"muk", ExactCommand::kMuK}};
  for (const auto& [text, value] : kCommands) {
    if (name == text) {
      *command = value;
      return true;
    }
  }
  return false;
}

const char* ExactAlgorithmName(ExactAlgorithm algorithm) {
  switch (algorithm) {
    case ExactAlgorithm::kEnumerator:
      return "enumerator";
    case ExactAlgorithm::kNaive:
      return "naive";
    case ExactAlgorithm::kChase:
      return "chase";
    case ExactAlgorithm::kUcq:
      return "ucq";
    case ExactAlgorithm::kPoly:
      return "poly";
  }
  return "?";
}

const char* ExactAlgorithmTheorem(ExactAlgorithm algorithm) {
  switch (algorithm) {
    case ExactAlgorithm::kEnumerator:
      return "no theorem applies";
    case ExactAlgorithm::kNaive:
      return "Corollary 3";
    case ExactAlgorithm::kChase:
      return "Theorem 5";
    case ExactAlgorithm::kUcq:
      return "Theorem 8";
    case ExactAlgorithm::kPoly:
      return "Theorem 3";
  }
  return "?";
}

ExactAlgorithm ChooseExactAlgorithm(ExactCommand command, const Query& query,
                                    const ConstraintSet& constraints,
                                    const Database& db, const ExactArgs& args) {
  // The polynomial is generic in the nulls of the tuple and the formula too:
  // they are among the m nulls the partition pass enumerates.
  if (command == ExactCommand::kMuK) return ExactAlgorithm::kPoly;
  if (FormulaHasNulls(query) || !TupleNullsInDatabase(db, args.tuples)) {
    return ExactAlgorithm::kEnumerator;
  }
  const Formula& formula = *query.formula();
  switch (command) {
    case ExactCommand::kCertain:
      return IsPosForallGuarded(formula) ? ExactAlgorithm::kNaive
                                         : ExactAlgorithm::kEnumerator;
    case ExactCommand::kCond:
      return FdsOnly(constraints, nullptr) ? ExactAlgorithm::kChase
                                           : ExactAlgorithm::kEnumerator;
    case ExactCommand::kBest:
    case ExactCommand::kBestMu:
    case ExactCommand::kCompare:
      return IsUnionOfConjunctive(formula) &&
                     UcqDisjunctCount(formula, kMaxUcqDisjuncts + 1) <=
                         kMaxUcqDisjuncts
                 ? ExactAlgorithm::kUcq
                 : ExactAlgorithm::kEnumerator;
    case ExactCommand::kMuK:
      break;  // Returned above.
  }
  return ExactAlgorithm::kEnumerator;
}

StatusOr<ExactArgs> ParseExactArgs(ExactCommand command, const Query& query,
                                   const std::string& args) {
  ExactArgs parsed;
  std::string_view rest = args;
  if (command == ExactCommand::kMuK) {
    // "<k> <tuple>".
    const std::size_t space = rest.find(' ');
    StatusOr<std::uint64_t> k = ParseUint64(rest.substr(0, space));
    if (!k.ok() || *k == 0) return Status::Error("usage: muk <k> <tuple>");
    if (*k > kMaxMukK) {
      return Status::Error("k must be at most ", kMaxMukK, ", got ", *k);
    }
    parsed.k = *k;
    rest = rest.substr(std::min(space, rest.size()));
  }
  if (command == ExactCommand::kCompare) {
    // "(t1) (t2)", split at the first ')'.
    std::size_t split = rest.find(')');
    if (split == std::string_view::npos) {
      return Status::Error("usage: compare (t1) (t2)");
    }
    StatusOr<Tuple> first = ParseAnswerTuple(query, rest.substr(0, split + 1));
    if (!first.ok()) return first.status();
    parsed.tuples.push_back(std::move(first).value());
    rest = rest.substr(split + 1);
  }
  if (command == ExactCommand::kCompare || command == ExactCommand::kCond ||
      command == ExactCommand::kMuK) {
    StatusOr<Tuple> last = ParseAnswerTuple(query, rest);
    if (!last.ok()) return last.status();
    parsed.tuples.push_back(std::move(last).value());
  }
  return parsed;
}

std::string ExplainExactPlan(ExactCommand command, const Query& query,
                             const ConstraintSet& constraints,
                             const Database& db, const ExactArgs& args) {
  ExactAlgorithm algorithm =
      ChooseExactAlgorithm(command, query, constraints, db, args);
  return std::string("exact: ") + ExactAlgorithmName(algorithm) + " (" +
         ExactAlgorithmTheorem(algorithm) + ")\n";
}

std::vector<Tuple> ExactCertainAnswers(const Query& query, const Database& db,
                                       ExactAlgorithm* used) {
  // Corollary 3 gives Q^naive(D) = (Q, D); CertainAnswers filters exactly
  // these rows, so the order matches too.
  if (Plan(ExactCommand::kCertain, query, {}, db, {}, used) ==
      ExactAlgorithm::kNaive) {
    return NaiveEvaluate(query, db);
  }
  return CertainAnswers(query, db);
}

std::vector<Tuple> ExactBestAnswers(const Query& query, const Database& db,
                                    ExactAlgorithm* used) {
  if (Plan(ExactCommand::kBest, query, {}, db, {}, used) ==
      ExactAlgorithm::kUcq) {
    return ValueOf(UcqBestAnswers(query, db));
  }
  return BestAnswers(query, db);
}

std::vector<Tuple> ExactBestMuAnswers(const Query& query, const Database& db,
                                      ExactAlgorithm* used) {
  if (Plan(ExactCommand::kBestMu, query, {}, db, {}, used) ==
      ExactAlgorithm::kUcq) {
    return ValueOf(UcqBestMuAnswers(query, db));
  }
  return BestMuAnswers(query, db);
}

SupportOrder ExactCompare(const Query& query, const Database& db,
                          const Tuple& a, const Tuple& b,
                          ExactAlgorithm* used) {
  SupportOrder order;
  if (Plan(ExactCommand::kCompare, query, {}, db, ExactArgs{{a, b}}, used) ==
      ExactAlgorithm::kUcq) {
    order.a_in_b = !ValueOf(UcqSeparates(query, db, a, b));
    order.b_in_a = !ValueOf(UcqSeparates(query, db, b, a));
  } else {
    order.a_in_b = WeaklyDominated(query, db, a, b);
    order.b_in_a = WeaklyDominated(query, db, b, a);
  }
  return order;
}

StatusOr<ExactConditional> ExactConditionalMu(
    const Query& query, const ConstraintSet& constraints, const Database& db,
    const Tuple& tuple, ExactAlgorithm* used) {
  ExactConditional result;
  switch (Plan(ExactCommand::kCond, query, constraints, db, ExactArgs{{tuple}},
               used)) {
    case ExactAlgorithm::kChase: {
      std::vector<FunctionalDependency> fds;
      FdsOnly(constraints, &fds);
      ChaseResult chase = ChaseFds(fds, db);
      if (chase.cancelled) return Status::Error(chase.failure_reason);
      // A failed chase is a constant/constant conflict: Σ is unsatisfiable.
      if (!chase.success) return result;
      result.sigma_satisfiable = true;
      result.value = Rational(MuLimitAfterChase(query, chase, tuple));
      return result;
    }
    default: {
      ConditionalMeasure measure =
          ComputeConditionalMu(query, constraints, db, tuple);
      result.value = std::move(measure.value);
      result.sigma_satisfiable = measure.sigma_satisfiable;
      return result;
    }
  }
}

StatusOr<Rational> ExactMuK(const Query& query, const Database& db,
                            const Tuple& tuple, std::size_t k,
                            ExactAlgorithm* used) {
  SupportInstance instance = MakeSupportInstance(query, db, tuple);
  if (k < instance.prefix.size()) {
    return Status::Error("k must be at least |C ∪ Const(D)| = ",
                         instance.prefix.size());
  }
  if (Plan(ExactCommand::kMuK, query, {}, db, ExactArgs{{tuple}, k}, used) ==
      ExactAlgorithm::kEnumerator) {
    return MuKParallel(query, db, tuple, k, par::par_threads());
  }
  const BigInt at(static_cast<std::int64_t>(k));
  const unsigned m = static_cast<unsigned>(instance.nulls.size());
  return ComputeSupportPolynomial(query, db, tuple).count.Evaluate(at) /
         Rational(BigInt::Pow(at, m));
}

}  // namespace zeroone

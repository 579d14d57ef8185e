// Differential conformance battery for morsel-driven parallelism: every
// computation retargeted onto the work-stealing pool must return
// byte-identical results at every team width. For each seed, the same
// randomly generated databases, queries, and programs are evaluated at
// 1 (the ZEROONE_PAR=off reference behavior), 2, and 8 threads and the
// results compared:
//
//  - FO evaluation (EvaluateQuery): identical answer vectors, order
//    included — per-morsel answer slots concatenate in morsel-index order,
//    which is domain order. Unary and Boolean (0-ary) queries both run.
//  - µ^k measures: MuKParallel at every width equals serial MuK exactly
//    (the sharded counter sums per-morsel partials in morsel order).
//  - Certain / possible answers: identical verdicts, for a unary and a
//    Boolean UCQ.
//  - Homomorphism and cores: literally identical results, not just
//    equivalent ones — the minimal-stop-index protocol makes the parallel
//    root sweep reproduce the serial first match.
//  - Datalog fixpoints: identical materialized databases (per-morsel
//    derived sets union into one set; unions are order-free).
//  - FD chase: identical outcomes.
//
// Each comparison is additionally cross-checked against the other
// execution-mode axis (ZEROONE_PLAN): parallel+compiled must equal the
// serial oracle (interpret), so the width and plan-mode switches compose
// without drift. Three seeds run in CI; the TSan job re-runs this whole
// binary to hunt data races in the pool integrations.

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "constraints/fd.h"
#include "core/measure.h"
#include "core/support.h"
#include "data/database.h"
#include "data/homomorphism.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "gen/random_db.h"
#include "gen/random_query.h"
#include "par/pool.h"
#include "plan/mode.h"
#include "query/eval.h"

namespace zeroone {
namespace {

// Runs `body` under the given team width, restoring the previous budget.
template <typename Fn>
auto WithThreads(std::size_t threads, Fn&& body) {
  std::size_t previous = par::par_threads();
  par::SetParThreads(threads);
  auto result = body();
  par::SetParThreads(previous);
  return result;
}

template <typename Fn>
auto WithPlanMode(plan::PlanMode mode, Fn&& body) {
  plan::PlanMode previous = plan::plan_mode();
  plan::SetPlanMode(mode);
  auto result = body();
  plan::SetPlanMode(previous);
  return result;
}

constexpr std::size_t kWidths[] = {2, 8};

Database SmallDb(std::uint64_t seed) {
  RandomDatabaseOptions options;
  options.relations = {{"R", 2, 6}, {"S", 1, 3}};
  options.constant_pool = 4;
  options.null_pool = 2;
  options.null_probability = 0.3;
  options.seed = seed;
  return GenerateRandomDatabase(options);
}

class ParDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParDiffTest, QueryEvaluationIsIdenticalAtEveryWidth) {
  const std::uint64_t seed = GetParam();
  Database db = SmallDb(seed);
  RandomQueryOptions q_options;
  q_options.relations = {{"R", 2}, {"S", 1}};
  // Unary variants, then Boolean ones: a 0-ary program has no output loop
  // to slice, and must still answer {()} or {} at every width.
  for (int variant = 0; variant < 8; ++variant) {
    q_options.free_variables = variant < 4 ? 1 : 0;
    q_options.seed = seed * 97 + static_cast<std::uint64_t>(variant % 4);
    Query fo = GenerateRandomFo(q_options, /*negation_probability=*/0.3);
    auto serial = WithThreads(1, [&] { return EvaluateQuery(fo, db); });
    for (std::size_t width : kWidths) {
      auto parallel =
          WithThreads(width, [&] { return EvaluateQuery(fo, db); });
      EXPECT_EQ(serial, parallel) << "seed " << seed << " variant " << variant
                                  << " width " << width << ": "
                                  << fo.ToString();
    }
    // Both plan modes must agree under an 8-wide budget: the VM's
    // outermost output loop is morselized (a Boolean program has no output
    // loop), the oracle's sweep stays serial.
    auto interpreted = WithThreads(8, [&] {
      return WithPlanMode(plan::PlanMode::kInterpret,
                          [&] { return EvaluateQuery(fo, db); });
    });
    auto compiled = WithThreads(8, [&] {
      return WithPlanMode(plan::PlanMode::kCompiled,
                          [&] { return EvaluateQuery(fo, db); });
    });
    EXPECT_EQ(serial, interpreted) << fo.ToString();
    EXPECT_EQ(serial, compiled) << fo.ToString();
  }
}

TEST_P(ParDiffTest, MuMeasuresAreIdenticalAtEveryWidth) {
  const std::uint64_t seed = GetParam();
  Database db = SmallDb(seed);
  RandomQueryOptions q_options;
  q_options.relations = {{"R", 2}, {"S", 1}};
  int measured = 0;
  for (int variant = 0; variant < 4; ++variant) {
    q_options.seed = seed * 131 + static_cast<std::uint64_t>(variant);
    Query fo = GenerateRandomFo(q_options, /*negation_probability=*/0.2);
    std::vector<Tuple> answers = NaiveEvaluate(fo, db);
    std::size_t limit = answers.size() < 3 ? answers.size() : 3;
    for (std::size_t i = 0; i < limit; ++i) {
      Rational serial = MuK(fo, db, answers[i], /*k=*/8);
      for (std::size_t width : kWidths) {
        EXPECT_EQ(serial, MuKParallel(fo, db, answers[i], /*k=*/8, width))
            << fo.ToString() << " @ " << answers[i].ToString() << " width "
            << width;
      }
      ++measured;
    }
  }
  EXPECT_GT(measured, 0) << "seed " << seed
                         << ": no query variant produced answers";
}

TEST_P(ParDiffTest, CertainAndPossibleVerdictsAreIdenticalAtEveryWidth) {
  const std::uint64_t seed = GetParam();
  Database db = SmallDb(seed);
  RandomQueryOptions q_options;
  q_options.relations = {{"R", 2}, {"S", 1}};
  q_options.seed = seed + 17;
  Query ucq = GenerateRandomUcq(q_options);
  auto certain_serial = WithThreads(1, [&] { return CertainAnswers(ucq, db); });
  for (std::size_t width : kWidths) {
    EXPECT_EQ(certain_serial,
              WithThreads(width, [&] { return CertainAnswers(ucq, db); }))
        << ucq.ToString() << " width " << width;
  }
  // The Boolean UCQ over the same seed: CertainAnswers takes its candidates
  // from naive evaluation, which must give {()} or {} at every width.
  RandomQueryOptions boolean_options = q_options;
  boolean_options.free_variables = 0;
  Query boolean_ucq = GenerateRandomUcq(boolean_options);
  auto boolean_serial =
      WithThreads(1, [&] { return CertainAnswers(boolean_ucq, db); });
  EXPECT_LE(boolean_serial.size(), 1u) << boolean_ucq.ToString();
  for (std::size_t width : kWidths) {
    EXPECT_EQ(boolean_serial, WithThreads(width, [&] {
                return CertainAnswers(boolean_ucq, db);
              }))
        << boolean_ucq.ToString() << " width " << width;
  }
  for (const Tuple& candidate : NaiveEvaluate(ucq, db)) {
    bool serial =
        WithThreads(1, [&] { return IsPossibleAnswer(ucq, db, candidate); });
    for (std::size_t width : kWidths) {
      EXPECT_EQ(serial, WithThreads(width, [&] {
                  return IsPossibleAnswer(ucq, db, candidate);
                }))
          << candidate.ToString() << " width " << width;
    }
  }
}

TEST_P(ParDiffTest, HomomorphismAndCoreAreLiterallyIdenticalAtEveryWidth) {
  const std::uint64_t seed = GetParam();
  Database a = SmallDb(seed);
  Database b = SmallDb(seed + 1000);
  // The minimal-stop-index protocol promises the parallel sweep returns the
  // serial first match itself — compare mappings, not just existence.
  auto serial_ab = WithThreads(1, [&] { return FindHomomorphism(a, b); });
  auto serial_ba = WithThreads(1, [&] { return FindHomomorphism(b, a); });
  Database serial_core = WithThreads(1, [&] { return ComputeCore(a); });
  for (std::size_t width : kWidths) {
    EXPECT_EQ(serial_ab,
              WithThreads(width, [&] { return FindHomomorphism(a, b); }))
        << "width " << width;
    EXPECT_EQ(serial_ba,
              WithThreads(width, [&] { return FindHomomorphism(b, a); }))
        << "width " << width;
    EXPECT_EQ(serial_core, WithThreads(width, [&] { return ComputeCore(a); }))
        << "width " << width;
  }
}

TEST_P(ParDiffTest, DatalogFixpointsAreIdenticalAtEveryWidth) {
  const std::uint64_t seed = GetParam();
  RandomDatabaseOptions options;
  options.relations = {{"E", 2, 8}};
  options.constant_pool = 5;
  options.null_pool = 2;
  options.null_probability = 0.25;
  options.seed = seed + 31;
  Database db = GenerateRandomDatabase(options);
  StatusOr<DatalogProgram> program = ParseDatalogProgram(R"(
    T(X, Y) :- E(X, Y).
    T(X, Z) :- E(X, Y), T(Y, Z).
    ?- T
  )");
  ASSERT_TRUE(program.ok()) << program.status().message();
  Database serial =
      WithThreads(1, [&] { return MaterializeDatalog(*program, db); });
  for (std::size_t width : kWidths) {
    EXPECT_EQ(serial, WithThreads(width, [&] {
                return MaterializeDatalog(*program, db);
              }))
        << "width " << width;
    EXPECT_EQ(
        WithThreads(1, [&] { return EvaluateDatalog(*program, db); }),
        WithThreads(width, [&] { return EvaluateDatalog(*program, db); }))
        << "width " << width;
  }
}

TEST_P(ParDiffTest, ChaseOutcomesAreIdenticalAtEveryWidth) {
  const std::uint64_t seed = GetParam();
  RandomDatabaseOptions options;
  options.relations = {{"R", 3, 8}};
  options.constant_pool = 3;
  options.null_pool = 3;
  options.null_probability = 0.4;
  options.seed = seed + 59;
  Database db = GenerateRandomDatabase(options);
  std::vector<FunctionalDependency> fds = {
      FunctionalDependency("R", 3, {0}, 1),
      FunctionalDependency("R", 3, {1, 2}, 0),
  };
  ChaseResult serial = WithThreads(1, [&] { return ChaseFds(fds, db); });
  for (std::size_t width : kWidths) {
    ChaseResult parallel = WithThreads(width, [&] { return ChaseFds(fds, db); });
    EXPECT_EQ(serial.success, parallel.success) << "width " << width;
    EXPECT_EQ(serial.failure_reason, parallel.failure_reason);
    EXPECT_EQ(serial.null_mapping, parallel.null_mapping);
    if (serial.success && parallel.success) {
      EXPECT_EQ(serial.database, parallel.database);
    }
  }
}

TEST_P(ParDiffTest, WidthAndPlanModeComposeWithoutDrift) {
  // Reference corner: serial + the interpreting oracle. Production corner:
  // 8-wide teams + compiled plans. Comparing the two extremes covers the
  // composition the other diff batteries check axis-by-axis.
  const std::uint64_t seed = GetParam();
  Database db = SmallDb(seed);
  RandomQueryOptions q_options;
  q_options.relations = {{"R", 2}, {"S", 1}};
  q_options.seed = seed + 71;
  Query ucq = GenerateRandomUcq(q_options);
  auto reference = WithThreads(1, [&] {
    return WithPlanMode(plan::PlanMode::kInterpret, [&] {
      return std::make_pair(EvaluateQuery(ucq, db), CertainAnswers(ucq, db));
    });
  });
  auto production = WithThreads(8, [&] {
    return WithPlanMode(plan::PlanMode::kCompiled, [&] {
      return std::make_pair(EvaluateQuery(ucq, db), CertainAnswers(ucq, db));
    });
  });
  EXPECT_EQ(reference.first, production.first) << ucq.ToString();
  EXPECT_EQ(reference.second, production.second) << ucq.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParDiffTest,
                         ::testing::Values(7u, 1234u, 98765u));

}  // namespace
}  // namespace zeroone

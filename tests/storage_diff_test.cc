// Differential conformance test for the indexed storage core: evaluators
// that probe Relation's lazily built, cached hash indexes must compute
// exactly what full scans compute, also on relations that were mutated
// after their indexes were built. For each seed, a randomly generated
// database first has every column-mask index built (and its planner
// statistics cached), then grows in place by a second random batch of
// tuples — overlapping the first, so some inserts are duplicates. Each
// workload then runs once under PlanMode::kInterpret (the oracle: full
// scans everywhere) and once under PlanMode::kCompiled (hash probes), and
// the results are compared:
//
//  - FO naive evaluation: identical answer vectors (order included).
//  - Certain / possible answers: identical verdicts per candidate tuple.
//  - Homomorphism: identical existence verdicts. The mapping itself may
//    legitimately differ (any homomorphism witnesses), so cores are
//    compared by size and isomorphism rather than literal equality.
//  - Datalog: identical materialized databases (operator== on Database).
//
// A stale index (one a mutation failed to invalidate) would hide the grown
// rows from the probe side only. plan_diff_test runs the same comparisons
// on freshly generated databases. Three distinct seeds run in CI.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/measure.h"
#include "data/database.h"
#include "data/homomorphism.h"
#include "data/isomorphism.h"
#include "data/relation.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "gen/random_db.h"
#include "gen/random_query.h"
#include "plan/mode.h"
#include "query/eval.h"

namespace zeroone {
namespace {

// Runs `body` under the given plan mode, restoring the previous mode.
template <typename Fn>
auto WithMode(plan::PlanMode mode, Fn&& body) {
  plan::PlanMode previous = plan::plan_mode();
  plan::SetPlanMode(mode);
  auto result = body();
  plan::SetPlanMode(previous);
  return result;
}

// The full-scan side of every comparison.
template <typename Fn>
auto Scan(Fn&& body) {
  return WithMode(plan::PlanMode::kInterpret, std::forward<Fn>(body));
}

// The hash-probe side of every comparison.
template <typename Fn>
auto Indexed(Fn&& body) {
  return WithMode(plan::PlanMode::kCompiled, std::forward<Fn>(body));
}

// Builds the index of every nonempty column mask of every relation, keyed
// on its first row, and caches the planner statistics.
void WarmIndexes(const Database& db) {
  for (const auto& [name, rel] : db.relations()) {
    if (rel.empty()) continue;
    rel.Stats();
    const Relation::Mask all = (Relation::Mask{1} << rel.arity()) - 1;
    for (Relation::Mask mask = 1; mask <= all; ++mask) {
      std::vector<Value> key;
      for (std::size_t c = 0; c < rel.arity(); ++c) {
        if ((mask >> c) & 1) key.push_back(rel.row(0)[c]);
      }
      EXPECT_FALSE(rel.Probe(mask, key).empty()) << name << " mask " << mask;
    }
  }
}

// Generates a database from `options`, warms its indexes, then grows every
// relation in place by a second batch drawn from the same pools.
Database GrownAfterIndexing(RandomDatabaseOptions options) {
  Database db = GenerateRandomDatabase(options);
  WarmIndexes(db);
  options.seed += 500;
  Database extra = GenerateRandomDatabase(options);
  for (const auto& [name, rel] : extra.relations()) {
    Relation& target = db.mutable_relation(name);
    // One row through Insert, the rest through InsertBatch: both mutation
    // paths must invalidate the cached indexes.
    if (!rel.empty()) target.Insert(rel.row(0).ToTuple());
    target.InsertBatch(rel);
  }
  return db;
}

Database SmallDb(std::uint64_t seed) {
  RandomDatabaseOptions options;
  options.relations = {{"R", 2, 6}, {"S", 1, 3}};
  options.constant_pool = 4;
  options.null_pool = 2;
  options.null_probability = 0.3;
  options.seed = seed;
  return GrownAfterIndexing(options);
}

class StorageDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StorageDiffTest, NaiveEvaluationIsIdentical) {
  const std::uint64_t seed = GetParam();
  Database db = SmallDb(seed);
  RandomQueryOptions q_options;
  q_options.relations = {{"R", 2}, {"S", 1}};
  for (int variant = 0; variant < 4; ++variant) {
    q_options.seed = seed * 97 + static_cast<std::uint64_t>(variant);
    Query fo = GenerateRandomFo(q_options, /*negation_probability=*/0.3);
    auto scan = Scan([&] { return NaiveEvaluate(fo, db); });
    auto indexed = Indexed([&] { return NaiveEvaluate(fo, db); });
    EXPECT_EQ(scan, indexed) << "seed " << seed << " variant " << variant
                             << ": " << fo.ToString();
  }
}

TEST_P(StorageDiffTest, CertainAndPossibleVerdictsAreIdentical) {
  const std::uint64_t seed = GetParam();
  Database db = SmallDb(seed);
  RandomQueryOptions q_options;
  q_options.relations = {{"R", 2}, {"S", 1}};
  q_options.seed = seed + 17;
  Query ucq = GenerateRandomUcq(q_options);
  auto certain_scan = Scan([&] { return CertainAnswers(ucq, db); });
  auto certain_indexed = Indexed([&] { return CertainAnswers(ucq, db); });
  EXPECT_EQ(certain_scan, certain_indexed) << ucq.ToString();
  // Possibility on the naive candidates (a superset of the certain ones).
  for (const Tuple& candidate : NaiveEvaluate(ucq, db)) {
    bool scan = Scan([&] { return IsPossibleAnswer(ucq, db, candidate); });
    bool indexed =
        Indexed([&] { return IsPossibleAnswer(ucq, db, candidate); });
    EXPECT_EQ(scan, indexed) << candidate.ToString();
  }
}

TEST_P(StorageDiffTest, HomomorphismAndCoreAgree) {
  const std::uint64_t seed = GetParam();
  Database a = SmallDb(seed);
  Database b = SmallDb(seed + 1000);
  auto exists = [&](const Database& from, const Database& to) {
    return std::pair<bool, bool>(
        Scan([&] { return FindHomomorphism(from, to).has_value(); }),
        Indexed([&] { return FindHomomorphism(from, to).has_value(); }));
  };
  auto [ab_scan, ab_indexed] = exists(a, b);
  EXPECT_EQ(ab_scan, ab_indexed);
  auto [ba_scan, ba_indexed] = exists(b, a);
  EXPECT_EQ(ba_scan, ba_indexed);
  auto [aa_scan, aa_indexed] = exists(a, a);
  EXPECT_TRUE(aa_scan);
  EXPECT_TRUE(aa_indexed);
  // Cores are unique up to isomorphism, not literally: the indexed search
  // may find a different (equally valid) folding.
  Database core_scan = Scan([&] { return ComputeCore(a); });
  Database core_indexed = Indexed([&] { return ComputeCore(a); });
  ASSERT_EQ(core_scan.relations().size(), core_indexed.relations().size());
  for (const auto& [name, rel] : core_scan.relations()) {
    EXPECT_EQ(rel.size(), core_indexed.relation(name).size()) << name;
  }
  EXPECT_TRUE(AreIsomorphic(core_scan, core_indexed));
}

TEST_P(StorageDiffTest, DatalogFixpointsAreIdentical) {
  const std::uint64_t seed = GetParam();
  RandomDatabaseOptions options;
  options.relations = {{"E", 2, 8}};
  options.constant_pool = 5;
  options.null_pool = 2;
  options.null_probability = 0.25;
  options.seed = seed + 31;
  Database db = GrownAfterIndexing(options);
  StatusOr<DatalogProgram> program = ParseDatalogProgram(R"(
    T(X, Y) :- E(X, Y).
    T(X, Z) :- E(X, Y), T(Y, Z).
    ?- T
  )");
  ASSERT_TRUE(program.ok()) << program.status().message();
  Database scan = Scan([&] { return MaterializeDatalog(*program, db); });
  Database indexed =
      Indexed([&] { return MaterializeDatalog(*program, db); });
  EXPECT_EQ(scan, indexed);
  EXPECT_EQ(Scan([&] { return EvaluateDatalog(*program, db); }),
            Indexed([&] { return EvaluateDatalog(*program, db); }));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageDiffTest,
                         ::testing::Values(7u, 1234u, 98765u));

}  // namespace
}  // namespace zeroone

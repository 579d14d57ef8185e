// Differential conformance test for the production evaluation path: the
// cost-based planner + bytecode VM and the hash-probing matchers
// (ZEROONE_PLAN unset or `compiled`) must compute byte-for-byte what the
// oracle (`ZEROONE_PLAN=interpret`: a serial full-domain tree-walk, full
// scans in every matcher) computes. For each seed, the same randomly
// generated databases, queries, programs, and constraint sets run once per
// PlanMode and the results are compared:
//
//  - FO naive evaluation (EvaluateQuery): identical answer vectors, order
//    included — the compiled output loops sweep candidates in domain
//    order precisely so emission order survives compilation.
//  - Membership (EvaluateMembership): identical verdicts per tuple.
//  - Certain / possible answers: identical answer sets and verdicts.
//  - UCQ matcher: identical answer sets and membership verdicts (the
//    planner permutes the backtracking join order; the match set is
//    join-order independent).
//  - Homomorphism / cores: identical existence verdicts, isomorphic cores
//    (probe-guided most-constrained-first search against static-order
//    full scans).
//  - Datalog: identical materialized databases (the body orderer changes
//    instantiation order only; the derived set is accumulated into a set).
//  - FD chase: identical outcome — success flag, failure reason, chased
//    database, and null mapping (probe spans ascend in scan order, so the
//    chase resolves violations in the same order).
//
// Three distinct seeds run in CI; CI runs the whole binary under both
// ZEROONE_PLAN-unset and ZEROONE_PLAN=interpret environments so the reference
// path itself stays exercised under sanitizers.

#include <gtest/gtest.h>

#include <vector>

#include "common/cancel.h"
#include "constraints/fd.h"
#include "core/measure.h"
#include "data/database.h"
#include "data/homomorphism.h"
#include "data/isomorphism.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "gen/random_db.h"
#include "gen/random_query.h"
#include "par/pool.h"
#include "plan/mode.h"
#include "query/eval.h"
#include "query/matcher.h"
#include "query/parser.h"

namespace zeroone {
namespace {

// Runs `body` under the given plan mode, restoring the previous mode.
template <typename Fn>
auto WithPlanMode(plan::PlanMode mode, Fn&& body) {
  plan::PlanMode previous = plan::plan_mode();
  plan::SetPlanMode(mode);
  auto result = body();
  plan::SetPlanMode(previous);
  return result;
}

template <typename Fn>
auto Compiled(Fn&& body) {
  return WithPlanMode(plan::PlanMode::kCompiled, std::forward<Fn>(body));
}

template <typename Fn>
auto Interpreted(Fn&& body) {
  return WithPlanMode(plan::PlanMode::kInterpret, std::forward<Fn>(body));
}

Database SmallDb(std::uint64_t seed) {
  RandomDatabaseOptions options;
  options.relations = {{"R", 2, 6}, {"S", 1, 3}};
  options.constant_pool = 4;
  options.null_pool = 2;
  options.null_probability = 0.3;
  options.seed = seed;
  return GenerateRandomDatabase(options);
}

class PlanDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlanDiffTest, NaiveEvaluationIsIdentical) {
  const std::uint64_t seed = GetParam();
  Database db = SmallDb(seed);
  RandomQueryOptions q_options;
  q_options.relations = {{"R", 2}, {"S", 1}};
  for (int variant = 0; variant < 8; ++variant) {
    q_options.seed = seed * 97 + static_cast<std::uint64_t>(variant);
    Query fo = GenerateRandomFo(q_options, /*negation_probability=*/0.3);
    auto interpreted = Interpreted([&] { return NaiveEvaluate(fo, db); });
    auto compiled = Compiled([&] { return NaiveEvaluate(fo, db); });
    EXPECT_EQ(interpreted, compiled)
        << "seed " << seed << " variant " << variant << ": " << fo.ToString();
  }
}

TEST_P(PlanDiffTest, MembershipVerdictsAreIdentical) {
  const std::uint64_t seed = GetParam();
  Database db = SmallDb(seed);
  RandomQueryOptions q_options;
  q_options.relations = {{"R", 2}, {"S", 1}};
  std::vector<Value> domain = db.ActiveDomain();
  for (int variant = 0; variant < 4; ++variant) {
    q_options.seed = seed * 131 + static_cast<std::uint64_t>(variant);
    Query fo = GenerateRandomFo(q_options, /*negation_probability=*/0.3);
    if (fo.is_boolean()) continue;
    // Probe every adom tuple of the query's arity (arity ≤ 2 by
    // construction, so this stays small).
    std::vector<Tuple> probes;
    if (fo.arity() == 1) {
      for (Value v : domain) probes.push_back(Tuple({v}));
    } else {
      for (Value a : domain) {
        for (Value b : domain) probes.push_back(Tuple({a, b}));
      }
    }
    for (const Tuple& t : probes) {
      bool interpreted =
          Interpreted([&] { return EvaluateMembership(fo, db, t, domain); });
      bool compiled =
          Compiled([&] { return EvaluateMembership(fo, db, t, domain); });
      EXPECT_EQ(interpreted, compiled)
          << fo.ToString() << " at " << t.ToString();
    }
  }
}

TEST_P(PlanDiffTest, CertainAndPossibleVerdictsAreIdentical) {
  const std::uint64_t seed = GetParam();
  Database db = SmallDb(seed);
  RandomQueryOptions q_options;
  q_options.relations = {{"R", 2}, {"S", 1}};
  q_options.seed = seed + 17;
  Query ucq = GenerateRandomUcq(q_options);
  auto certain_interp =
      Interpreted([&] { return CertainAnswers(ucq, db); });
  auto certain_compiled = Compiled([&] { return CertainAnswers(ucq, db); });
  EXPECT_EQ(certain_interp, certain_compiled) << ucq.ToString();
  for (const Tuple& candidate : NaiveEvaluate(ucq, db)) {
    bool interpreted =
        Interpreted([&] { return IsPossibleAnswer(ucq, db, candidate); });
    bool compiled =
        Compiled([&] { return IsPossibleAnswer(ucq, db, candidate); });
    EXPECT_EQ(interpreted, compiled) << candidate.ToString();
  }
}

TEST_P(PlanDiffTest, UcqMatcherAgreesAcrossModes) {
  const std::uint64_t seed = GetParam();
  Database db = SmallDb(seed);
  RandomQueryOptions q_options;
  q_options.relations = {{"R", 2}, {"S", 1}};
  for (int variant = 0; variant < 4; ++variant) {
    q_options.seed = seed * 211 + static_cast<std::uint64_t>(variant);
    Query ucq = GenerateRandomUcq(q_options);
    auto interpreted = Interpreted([&] { return UcqEvaluate(ucq, db); });
    auto compiled = Compiled([&] { return UcqEvaluate(ucq, db); });
    ASSERT_TRUE(interpreted.ok()) << interpreted.status().message();
    ASSERT_TRUE(compiled.ok()) << compiled.status().message();
    EXPECT_EQ(interpreted.value(), compiled.value()) << ucq.ToString();
    for (const Tuple& t : interpreted.value()) {
      auto member_i = Interpreted([&] { return UcqMembership(ucq, db, t); });
      auto member_c = Compiled([&] { return UcqMembership(ucq, db, t); });
      ASSERT_TRUE(member_i.ok() && member_c.ok());
      EXPECT_TRUE(member_i.value());
      EXPECT_TRUE(member_c.value());
    }
  }
}

TEST_P(PlanDiffTest, HomomorphismAndCoreAgree) {
  const std::uint64_t seed = GetParam();
  Database a = SmallDb(seed);
  Database b = SmallDb(seed + 1000);
  auto exists = [&](const Database& from, const Database& to) {
    return std::pair<bool, bool>(
        Interpreted([&] { return FindHomomorphism(from, to).has_value(); }),
        Compiled([&] { return FindHomomorphism(from, to).has_value(); }));
  };
  auto [ab_interp, ab_compiled] = exists(a, b);
  EXPECT_EQ(ab_interp, ab_compiled);
  auto [ba_interp, ba_compiled] = exists(b, a);
  EXPECT_EQ(ba_interp, ba_compiled);
  auto [aa_interp, aa_compiled] = exists(a, a);
  EXPECT_TRUE(aa_interp);  // The identity is always a homomorphism.
  EXPECT_TRUE(aa_compiled);
  // Cores are unique up to isomorphism, not literally: the probe-guided
  // search may find a different (equally valid) folding.
  Database core_interp = Interpreted([&] { return ComputeCore(a); });
  Database core_compiled = Compiled([&] { return ComputeCore(a); });
  ASSERT_EQ(core_interp.relations().size(),
            core_compiled.relations().size());
  for (const auto& [name, rel] : core_interp.relations()) {
    EXPECT_EQ(rel.size(), core_compiled.relation(name).size()) << name;
  }
  EXPECT_TRUE(AreIsomorphic(core_interp, core_compiled));
}

TEST_P(PlanDiffTest, DatalogFixpointsAreIdentical) {
  const std::uint64_t seed = GetParam();
  RandomDatabaseOptions options;
  options.relations = {{"E", 2, 8}, {"Blocked", 1, 2}};
  options.constant_pool = 5;
  options.null_pool = 2;
  options.null_probability = 0.25;
  options.seed = seed + 31;
  Database db = GenerateRandomDatabase(options);
  // Recursion plus stratified negation: exercises the delta designation
  // under reordering and the ground-only placement of negated literals.
  StatusOr<DatalogProgram> program = ParseDatalogProgram(R"(
    T(X, Y) :- E(X, Y).
    T(X, Z) :- E(X, Y), T(Y, Z).
    Free(X, Y) :- T(X, Y), !Blocked(Y).
    ?- Free
  )");
  ASSERT_TRUE(program.ok()) << program.status().message();
  Database interpreted =
      Interpreted([&] { return MaterializeDatalog(*program, db); });
  Database compiled =
      Compiled([&] { return MaterializeDatalog(*program, db); });
  EXPECT_EQ(interpreted, compiled);
  EXPECT_EQ(Interpreted([&] { return EvaluateDatalog(*program, db); }),
            Compiled([&] { return EvaluateDatalog(*program, db); }));
}

TEST_P(PlanDiffTest, ChaseOutcomesAreIdentical) {
  const std::uint64_t seed = GetParam();
  // Wider null pool: chases that actually merge and fail are the
  // interesting ones, and both outcomes occur across the three seeds.
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
  ChaseResult interpreted = Interpreted([&] { return ChaseFds(fds, db); });
  ChaseResult compiled = Compiled([&] { return ChaseFds(fds, db); });
  EXPECT_EQ(interpreted.success, compiled.success);
  EXPECT_EQ(interpreted.failure_reason, compiled.failure_reason);
  EXPECT_EQ(interpreted.null_mapping, compiled.null_mapping);
  if (interpreted.success && compiled.success) {
    EXPECT_EQ(interpreted.database, compiled.database);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanDiffTest,
                         ::testing::Values(7u, 1234u, 98765u));

// The oracle polls the CancelToken once per first-column value, so an
// interpreted request stops at its deadline however wide the domain — also
// with a one-thread budget, where no morsel loop polls on its behalf.
TEST(PlanOracleTest, InterpretedEvaluateQueryStopsWhenCancelled) {
  const std::size_t previous_threads = par::par_threads();
  par::SetParThreads(1);
  Database db;
  Relation& r = db.AddRelation("R", 2);
  for (std::int64_t i = 0; i < 50; ++i) {
    r.Insert({Value::Int(i), Value::Int(i)});
  }
  Query loops = ParseQuery("Q(x) := R(x, x)").value();
  EXPECT_EQ(Interpreted([&] { return EvaluateQuery(loops, db); }).size(),
            50u);
  CancelToken token;
  token.Cancel();
  ScopedCancelToken scope(&token);
  EXPECT_TRUE(Interpreted([&] { return EvaluateQuery(loops, db); }).empty());
  par::SetParThreads(previous_threads);
}

}  // namespace
}  // namespace zeroone

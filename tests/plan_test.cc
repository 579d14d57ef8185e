// Unit and integration tests for zeroone::plan — the cost model, the
// bytecode compiler/VM, the plan cache (including invalidation through the
// svc dispatcher, sequential and raced), the clause/body orderers, and the
// explain surfaces.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "data/database.h"
#include "data/io.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "par/pool.h"
#include "plan/cache.h"
#include "plan/clause_plan.h"
#include "plan/compiler.h"
#include "plan/cost.h"
#include "plan/datalog_plan.h"
#include "plan/ir.h"
#include "plan/mode.h"
#include "plan/vm.h"
#include "query/eval.h"
#include "query/parser.h"
#include "svc/dispatch.h"
#include "svc/protocol.h"

namespace zeroone {
namespace {

template <typename Fn>
auto WithPlanMode(plan::PlanMode mode, Fn&& body) {
  plan::PlanMode previous = plan::plan_mode();
  plan::SetPlanMode(mode);
  auto result = body();
  plan::SetPlanMode(previous);
  return result;
}

// Runs `body` under the given team width, restoring the previous budget.
template <typename Fn>
auto WithThreads(std::size_t threads, Fn&& body) {
  std::size_t previous = par::par_threads();
  par::SetParThreads(threads);
  auto result = body();
  par::SetParThreads(previous);
  return result;
}

Database Db(const char* text) {
  StatusOr<Database> db = ParseDatabase(text);
  EXPECT_TRUE(db.ok()) << db.status().message();
  return std::move(db).value();
}

Query Q(const char* text) {
  StatusOr<Query> query = ParseQuery(text);
  EXPECT_TRUE(query.ok()) << query.status().message();
  return std::move(query).value();
}

// ---------------------------------------------------------------------------
// Relation statistics and the cost model.

TEST(RelationStatsTest, CountsRowsAndPerColumnDistincts) {
  Database db = Db("R(2) = { (a, x), (b, x), (c, x), (c, y) }");
  RelationStats stats = db.relation("R").Stats();
  EXPECT_EQ(stats.rows, 4u);
  ASSERT_EQ(stats.distinct_per_column.size(), 2u);
  EXPECT_EQ(stats.distinct_per_column[0], 3u);  // a, b, c
  EXPECT_EQ(stats.distinct_per_column[1], 2u);  // x, y
}

TEST(RelationStatsTest, MutationInvalidatesCachedStats) {
  Database db = Db("R(1) = { (a) }");
  EXPECT_EQ(db.relation("R").Stats().rows, 1u);
  db.mutable_relation("R").Insert(Tuple({Value::Constant("b")}));
  EXPECT_EQ(db.relation("R").Stats().rows, 2u);
}

TEST(CostModelTest, BoundColumnsDivideTheEstimate) {
  Database db = Db("R(2) = { (a, x), (b, x), (c, x), (c, y) }");
  RelationStats stats = db.relation("R").Stats();
  EXPECT_DOUBLE_EQ(plan::EstimateMatches(stats, {}), 4.0);
  EXPECT_DOUBLE_EQ(plan::EstimateMatches(stats, {0}), 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(plan::EstimateMatches(stats, {1}), 2.0);
  EXPECT_DOUBLE_EQ(plan::EstimateMatches(stats, {0, 1}), 4.0 / 6.0);
}

// ---------------------------------------------------------------------------
// Planner, compiler, VM.

TEST(PlannerTest, ExplainNamesCandidatesMasksAndEstimates) {
  Database db = Db("R(2) = { (a, x), (b, y) } S(1) = { (a) }");
  // Written S-first; with x and y both bound, R estimates 2/(2*2) = 0.5
  // rows against S's 1/1 = 1, so the planner must hoist R ahead of S.
  Query query = Q("Q(x) := exists y . S(x) & R(x, y)");
  std::string explain = ExplainQueryPlan(query, db);
  EXPECT_NE(explain.find("plan [enumerate]"), std::string::npos) << explain;
  EXPECT_NE(explain.find("est="), std::string::npos) << explain;
  std::size_t s_pos = explain.find("check S");
  std::size_t r_pos = explain.find("check R");
  ASSERT_NE(s_pos, std::string::npos) << explain;
  ASSERT_NE(r_pos, std::string::npos) << explain;
  EXPECT_LT(r_pos, s_pos) << explain;
}

TEST(CompilerTest, DisassembleListsEveryInstruction) {
  Database db = Db("R(2) = { (a, x) }");
  Query query = Q("Q(x) := exists y . R(x, y)");
  plan::CompiledQuery compiled = plan::CompileFormulaQuery(
      *query.formula(), query.free_variables(), query.variable_count(),
      query.variable_names(), db, /*enumerate=*/true);
  std::string listing = compiled.program.Disassemble();
  EXPECT_NE(listing.find("loop"), std::string::npos) << listing;
  EXPECT_NE(listing.find("check R"), std::string::npos) << listing;
  EXPECT_NE(listing.find("emit"), std::string::npos) << listing;
  EXPECT_NE(listing.find("halt true"), std::string::npos) << listing;
}

// The compiled side runs at fixed team widths, so the verdict does not
// depend on the host. The Boolean cases guard the parallel driver: a 0-ary
// program has no output loop, so its pc 0 is the first quantifier loop,
// which must not be sliced — a sliced ∃ emits () once per morsel holding a
// witness, and a sliced ∀ that holds on one morsel's values is taken as
// true for the whole domain.
TEST(VmTest, EnumerateMatchesInterpreterOnHandWrittenQueries) {
  Database db = Db(
      "R(2) = { (c1, _1), (c2, _2), (c3, c1), (c1, c2) } "
      "S(1) = { (c1), (_2) }");
  const char* queries[] = {
      "Q(x) := exists y . R(x, y)",
      "Q(x) := S(x) & !(exists y . R(x, y))",
      "Q(x, y) := R(x, y) | (S(x) & S(y))",
      "Q(x) := forall y . (R(x, y) -> S(y))",
      "Q(x, x2) := R(x, x2) & x = x2",
      "Q() := exists x . S(x)",
      "Q() := forall x . S(x)",
      "Q() := forall x . exists y . (R(x, y) | S(x))",
      "Q() := !(forall x . S(x))",
      "Q() := exists x . exists y . R(x, y) & S(y)",
  };
  for (const char* text : queries) {
    Query query = Q(text);
    auto interpreted = WithThreads(1, [&] {
      return WithPlanMode(plan::PlanMode::kInterpret,
                          [&] { return EvaluateQuery(query, db); });
    });
    for (std::size_t width : {1, 2, 4, 8}) {
      auto compiled = WithThreads(width, [&] {
        return WithPlanMode(plan::PlanMode::kCompiled,
                            [&] { return EvaluateQuery(query, db); });
      });
      EXPECT_EQ(interpreted, compiled) << text << " width " << width;
    }
  }
}

TEST(VmTest, MembershipMatchesInterpreterIncludingRepeatedVariables) {
  Database db = Db("R(2) = { (c1, c1), (c1, c2), (_1, _1) }");
  Query query = Q("Q(x, x) := R(x, x)");
  std::vector<Value> domain = db.ActiveDomain();
  for (Value a : domain) {
    for (Value b : domain) {
      Tuple t({a, b});
      bool interpreted = WithPlanMode(plan::PlanMode::kInterpret, [&] {
        return EvaluateMembership(query, db, t, domain);
      });
      bool compiled = WithPlanMode(plan::PlanMode::kCompiled, [&] {
        return EvaluateMembership(query, db, t, domain);
      });
      EXPECT_EQ(interpreted, compiled) << t.ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Orderers.

TEST(ClausePlanTest, SelectiveAtomGoesFirst) {
  Database db = Db(
      "Big(2) = { (a, b), (a, c), (b, c), (c, d), (d, e), (e, a) } "
      "Tiny(1) = { (a) }");
  std::vector<plan::ClauseAtom> atoms = {
      {"Big", {Term::Variable(0), Term::Variable(1)}},
      {"Tiny", {Term::Variable(0)}},
  };
  std::vector<std::size_t> order =
      plan::OrderClauseAtoms(atoms, db, /*bound_vars=*/{});
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);  // Tiny first: 1 row vs 6.
  EXPECT_EQ(order[1], 0u);
}

TEST(DatalogPlanTest, NegatedLiteralWaitsUntilGround) {
  Database db = Db("E(2) = { (a, b), (b, c) } Blocked(1) = { (b) }");
  std::vector<plan::BodyLiteral> body = {
      {"Blocked", {Term::Variable(0)}, /*negated=*/true},
      {"E", {Term::Variable(0), Term::Variable(1)}, /*negated=*/false},
  };
  plan::BodyOrder ordered = plan::OrderBody(body, db, -1, nullptr);
  ASSERT_EQ(ordered.order.size(), 2u);
  EXPECT_EQ(ordered.order[0], 1u);  // E binds X before !Blocked(X) runs.
  EXPECT_EQ(ordered.order[1], 0u);
}

TEST(DatalogPlanTest, DeltaLiteralEstimatesFromTheDelta) {
  Database db = Db("E(2) = { (a, b), (b, c), (c, d), (d, e) }");
  // T is intensional: 4 rows materialized, but only 1 in this round's delta.
  Database with_t = db;
  Relation& t = with_t.AddRelation("T", 2);
  t.InsertBatch(db.relation("E"));
  Relation delta("T", 2);
  delta.Insert(db.relation("E").Tuples()[0]);
  std::vector<plan::BodyLiteral> body = {
      {"E", {Term::Variable(0), Term::Variable(1)}, false},
      {"T", {Term::Variable(1), Term::Variable(2)}, false},
  };
  plan::BodyOrder ordered = plan::OrderBody(body, with_t, 1, &delta);
  // The delta literal (1 row) beats the full E scan (4 rows).
  EXPECT_EQ(ordered.order[0], 1u);
}

// ---------------------------------------------------------------------------
// Plan cache.

TEST(PlanCacheTest, LruEvictsAndStatsCount) {
  plan::PlanCache cache;
  auto entry = std::make_shared<const plan::CompiledQuery>();
  EXPECT_EQ(cache.Get("missing"), nullptr);
  cache.Put("a", entry);
  EXPECT_EQ(cache.Get("a"), entry);
  plan::PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  cache.Clear();
  EXPECT_EQ(cache.Get("a"), nullptr);
}

TEST(PlanCacheTest, ScopeIsThreadLocalAndNests) {
  EXPECT_EQ(plan::CurrentPlanScope(), nullptr);
  {
    plan::ScopedPlanScope outer("outer");
    ASSERT_NE(plan::CurrentPlanScope(), nullptr);
    EXPECT_EQ(*plan::CurrentPlanScope(), "outer");
    {
      plan::ScopedPlanScope inner("inner");
      EXPECT_EQ(*plan::CurrentPlanScope(), "inner");
    }
    EXPECT_EQ(*plan::CurrentPlanScope(), "outer");
    std::thread other([] { EXPECT_EQ(plan::CurrentPlanScope(), nullptr); });
    other.join();
  }
  EXPECT_EQ(plan::CurrentPlanScope(), nullptr);
}

svc::Request Req(const std::string& command, const std::string& args = "",
                 const std::string& session = "plancache") {
  svc::Request request;
  request.command = command;
  request.args = args;
  request.session = session;
  request.no_cache = true;  // Bypass the result cache; hit the plan cache.
  return request;
}

// Mutating the session between identical queries must recompile (the
// version is part of the plan-cache scope key) and answer from the new
// state; an unchanged session must reuse the cached plan. Asserted via
// PlanCache::Global() hit/miss deltas, which (unlike the obs counters)
// exist in every build configuration.
TEST(PlanCacheTest, DispatcherInvalidatesPlansOnMutation) {
  plan::PlanCache& cache = plan::PlanCache::Global();
  auto result = WithPlanMode(plan::PlanMode::kCompiled, [&] {
    svc::Dispatcher dispatcher({});
    EXPECT_EQ(dispatcher.Execute(Req("db", "R(2) = { (c1, c2) }")).status,
              svc::WireStatus::kOk);
    EXPECT_EQ(dispatcher.Execute(Req("query", "Q(x) := exists y . R(x, y)"))
                  .status,
              svc::WireStatus::kOk);

    plan::PlanCache::Stats s0 = cache.stats();
    svc::Response first = dispatcher.Execute(Req("naive"));
    EXPECT_EQ(first.status, svc::WireStatus::kOk);
    plan::PlanCache::Stats s1 = cache.stats();
    EXPECT_GE(s1.misses - s0.misses, 1u);  // Cold: compiled and cached.

    // Same session, same version: the plan cache serves the second run.
    svc::Response second = dispatcher.Execute(Req("naive"));
    EXPECT_EQ(second.payload, first.payload);
    plan::PlanCache::Stats s2 = cache.stats();
    EXPECT_GE(s2.hits - s1.hits, 1u);
    EXPECT_EQ(s2.misses, s1.misses);

    // Mutation bumps the version: the old plan is unreachable, the query
    // recompiles under the new key, and the new row must appear.
    dispatcher.Execute(Req("db", "R(2) = { (c9, c9) }"));
    svc::Response third = dispatcher.Execute(Req("naive"));
    plan::PlanCache::Stats s3 = cache.stats();
    EXPECT_GE(s3.misses - s2.misses, 1u);
    EXPECT_NE(third.payload.find("(c9)"), std::string::npos)
        << third.payload;
    EXPECT_NE(third.payload, first.payload);
    return 0;
  });
  (void)result;
}

// Raced mutations and reads: readers hold the shared session lock while
// compiling/consulting plans keyed by the version, mutators bump the
// version under the exclusive lock (the same discipline that keeps the
// result cache coherent). The mode is pinned to kCompiled before any
// thread starts — SetPlanMode is not safe against concurrent evaluation.
// Afterwards, compiled and interpreted evaluation must agree on the final
// state.
TEST(PlanCacheTest, RacedMutationsNeverServeStalePlans) {
  svc::Dispatcher dispatcher({});
  plan::PlanMode previous = plan::plan_mode();
  plan::SetPlanMode(plan::PlanMode::kCompiled);
  dispatcher.Execute(Req("db", "R(2) = { (c1, c2) }", "race"));
  dispatcher.Execute(
      Req("query", "Q(x) := exists y . R(x, y) & R(y, x)", "race"));

  constexpr int kMutations = 40;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread mutator([&] {
    for (int i = 0; i < kMutations; ++i) {
      svc::Request req =
          Req("db", StrCat("R(2) = { (m", i, ", m", i, ") }"), "race");
      if (dispatcher.Execute(req).status != svc::WireStatus::kOk) {
        ++failures;
      }
    }
    done = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done) {
        svc::Response response = dispatcher.Execute(Req("naive", "", "race"));
        if (response.status != svc::WireStatus::kOk) ++failures;
      }
    });
  }
  mutator.join();
  for (std::thread& t : readers) t.join();
  plan::SetPlanMode(previous);
  EXPECT_EQ(failures, 0);

  // Final state: every (mi, mi) loop plus nothing from nowhere — compiled
  // and interpreted answers must be byte-identical.
  auto compiled = WithPlanMode(plan::PlanMode::kCompiled, [&] {
    return dispatcher.Execute(Req("naive", "", "race")).payload;
  });
  auto interpreted = WithPlanMode(plan::PlanMode::kInterpret, [&] {
    return dispatcher.Execute(Req("naive", "", "race")).payload;
  });
  EXPECT_EQ(compiled, interpreted);
  EXPECT_NE(compiled.find("(m0)"), std::string::npos) << compiled;
  EXPECT_NE(compiled.find(StrCat("(m", kMutations - 1, ")")),
            std::string::npos)
      << compiled;
}

// ---------------------------------------------------------------------------
// svc @explain plumbing.

TEST(ExplainTest, SvcExplainPrintsPlansAndSkipsExecution) {
  svc::Dispatcher dispatcher({});
  dispatcher.Execute(Req("db", "R(2) = { (c1, c2) }", "explain"));
  dispatcher.Execute(Req("query", "Q(x) := exists y . R(x, y)", "explain"));
  svc::Request request = Req("naive", "", "explain");
  request.explain = true;
  svc::Response response = dispatcher.Execute(request);
  EXPECT_EQ(response.status, svc::WireStatus::kOk);
  EXPECT_NE(response.payload.find("plan [enumerate]"), std::string::npos)
      << response.payload;
  // Explain without a query is a command error, not a crash.
  svc::Request no_query = Req("naive", "", "explain-empty");
  no_query.explain = true;
  EXPECT_EQ(dispatcher.Execute(no_query).status, svc::WireStatus::kErr);
  // Explain on a non-evaluation command is rejected.
  svc::Request ping = Req("show", "", "explain");
  ping.explain = true;
  EXPECT_EQ(dispatcher.Execute(ping).status, svc::WireStatus::kErr);
}

TEST(ExplainTest, DatalogExplainShowsBodyOrders) {
  Database db = Db("E(2) = { (a, b), (b, c) } Blocked(1) = { (b) }");
  StatusOr<DatalogProgram> program = ParseDatalogProgram(R"(
    T(X, Y) :- E(X, Y).
    T(X, Z) :- E(X, Y), T(Y, Z).
    Free(X, Y) :- T(X, Y), !Blocked(Y).
    ?- Free
  )");
  ASSERT_TRUE(program.ok()) << program.status().message();
  std::string explain = ExplainDatalogPlan(*program, db);
  EXPECT_NE(explain.find("datalog plan"), std::string::npos) << explain;
  EXPECT_NE(explain.find("rule 0"), std::string::npos) << explain;
  EXPECT_NE(explain.find("not Blocked"), std::string::npos) << explain;
  EXPECT_NE(explain.find("est="), std::string::npos) << explain;
}

TEST(ExplainTest, ProtocolRoundTripsTheExplainOption) {
  svc::Request request;
  request.command = "naive";
  request.explain = true;
  std::string line = svc::FormatRequestLine(request);
  EXPECT_NE(line.find("@explain=1"), std::string::npos) << line;
  StatusOr<svc::Request> parsed = svc::ParseRequestLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_TRUE(parsed->explain);
  EXPECT_EQ(svc::FormatRequestLine(*parsed), line);
  // Bad values are BAD_REQUEST material, not accepted.
  EXPECT_FALSE(svc::ParseRequestLine("@explain=2 naive").ok());
}

}  // namespace
}  // namespace zeroone

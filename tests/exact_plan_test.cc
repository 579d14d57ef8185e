// The exact-plan battery: every fast path core/exact_plan picks is held
// byte-identical to the generic enumerator it replaces, on random inputs
// over several seeds, and the choice itself is asserted — the negative
// cases (negation, unguarded ∀…→, nulls in the formula, Σ with an IND,
// tuple nulls outside Null(D), UCQs whose DNF is too large to build) must
// run the enumerator, and so must every request under the interpreting
// reference plan mode (the oracle gate).

#include "core/exact_plan.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "constraints/fd.h"
#include "constraints/ind.h"
#include "core/comparison.h"
#include "core/conditional.h"
#include "core/measure.h"
#include "data/io.h"
#include "gen/random_db.h"
#include "gen/random_query.h"
#include "obs/metrics.h"
#include "plan/mode.h"
#include "query/eval.h"
#include "query/fragments.h"
#include "query/parser.h"
#include "svc/dispatch.h"

namespace zeroone {
namespace {

Database Db(const char* text) {
  StatusOr<Database> db = ParseDatabase(text);
  EXPECT_TRUE(db.ok()) << db.status().message();
  return std::move(db).value();
}

Query Q(const char* text) {
  StatusOr<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().message();
  return std::move(q).value();
}

ConstraintSet Fds(std::vector<FunctionalDependency> fds) {
  ConstraintSet set;
  for (FunctionalDependency& fd : fds) {
    set.push_back(std::make_shared<FunctionalDependency>(std::move(fd)));
  }
  return set;
}

// Restores the plan mode a test switched.
class PlanModeGuard {
 public:
  explicit PlanModeGuard(plan::PlanMode mode) : previous_(plan::plan_mode()) {
    plan::SetPlanMode(mode);
  }
  ~PlanModeGuard() { plan::SetPlanMode(previous_); }

 private:
  plan::PlanMode previous_;
};

// Small random instances: two binary relations and a unary one, few nulls,
// so every enumerator finishes in milliseconds.
Database RandomDb(std::uint64_t seed, std::size_t nulls = 2) {
  RandomDatabaseOptions options;
  options.relations = {{"R", 2, 6}, {"S", 2, 5}, {"U", 1, 3}};
  options.constant_pool = 3;
  options.null_pool = nulls;
  options.null_probability = 0.35;
  options.seed = seed;
  return GenerateRandomDatabase(options);
}

RandomQueryOptions QueryOptions(std::uint64_t seed, std::size_t free) {
  RandomQueryOptions options;
  options.relations = {{"R", 2}, {"S", 2}, {"U", 1}};
  options.free_variables = free;
  options.existential_variables = 1;
  options.clauses = 2;
  options.atoms_per_clause = 2;
  // c3 lies outside every instance's constants c0..c2.
  options.constant_pool = 4;
  options.constant_probability = 0.15;
  options.seed = seed;
  return options;
}

// Unary probe tuples: adom(D) (constants and nulls of D), a query constant
// outside adom(D), and a constant nobody mentions.
std::vector<Tuple> UnaryProbes(const Database& db) {
  std::vector<Tuple> probes;
  for (Value v : db.ActiveDomain()) probes.push_back(Tuple{v});
  probes.push_back(Tuple{Value::Constant("c3")});
  probes.push_back(Tuple{Value::Constant("zz")});
  return probes;
}

std::vector<Tuple> ProbesFor(const Query& query, const Database& db) {
  return query.arity() == 0 ? std::vector<Tuple>{Tuple{}} : UnaryProbes(db);
}

class ExactPlanSeeds : public ::testing::TestWithParam<int> {
 protected:
  std::uint64_t seed() const {
    return static_cast<std::uint64_t>(GetParam());
  }
};

// Corollary 3: certain answers of Pos∀G queries by naïve evaluation.
TEST_P(ExactPlanSeeds, CertainOnPosForallGuardedMatchesEnumerator) {
  PlanModeGuard mode(plan::PlanMode::kCompiled);
  for (std::size_t free : {0u, 1u}) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      Database db = RandomDb(7000 + seed() * 8 + i);
      Query query = GenerateRandomPosForallGuarded(
          QueryOptions(7100 + seed() * 8 + i, free), 0.5);
      ASSERT_TRUE(IsPosForallGuarded(*query.formula())) << query.ToString();
      ExactAlgorithm used = ExactAlgorithm::kEnumerator;
      std::vector<Tuple> fast = ExactCertainAnswers(query, db, &used);
      EXPECT_EQ(used, ExactAlgorithm::kNaive) << query.ToString();
      EXPECT_EQ(fast, CertainAnswers(query, db))
          << query.ToString() << "\n" << db.ToString();
    }
  }
}

// Theorem 8 and Proposition 8: best answers and pairwise comparison of
// UCQs, Boolean ones included.
TEST_P(ExactPlanSeeds, BestAndCompareOnUcqMatchEnumerator) {
  PlanModeGuard mode(plan::PlanMode::kCompiled);
  for (std::size_t free : {0u, 1u}) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      Database db = RandomDb(7200 + seed() * 8 + i);
      Query query =
          GenerateRandomUcq(QueryOptions(7300 + seed() * 8 + i, free));
      ExactAlgorithm used = ExactAlgorithm::kEnumerator;
      EXPECT_EQ(ExactBestAnswers(query, db, &used), BestAnswers(query, db))
          << query.ToString() << "\n" << db.ToString();
      EXPECT_EQ(used, ExactAlgorithm::kUcq);
      EXPECT_EQ(ExactBestMuAnswers(query, db, &used),
                BestMuAnswers(query, db))
          << query.ToString() << "\n" << db.ToString();
      EXPECT_EQ(used, ExactAlgorithm::kUcq);
      std::vector<Tuple> probes = ProbesFor(query, db);
      for (const Tuple& a : probes) {
        for (const Tuple& b : probes) {
          SupportOrder order = ExactCompare(query, db, a, b, &used);
          EXPECT_EQ(used, ExactAlgorithm::kUcq);
          EXPECT_EQ(order.a_in_b, WeaklyDominated(query, db, a, b))
              << a.ToString() << " vs " << b.ToString() << " for "
              << query.ToString() << "\n" << db.ToString();
          EXPECT_EQ(order.b_in_a, WeaklyDominated(query, db, b, a))
              << b.ToString() << " vs " << a.ToString() << " for "
              << query.ToString() << "\n" << db.ToString();
        }
      }
    }
  }
}

void ExpectCondMatches(const Query& query, const ConstraintSet& sigma,
                       const Database& db, const Tuple& tuple,
                       ExactAlgorithm expected) {
  ExactAlgorithm used = ExactAlgorithm::kEnumerator;
  StatusOr<ExactConditional> fast =
      ExactConditionalMu(query, sigma, db, tuple, &used);
  ASSERT_TRUE(fast.ok()) << fast.status().message();
  EXPECT_EQ(used, expected) << query.ToString() << " at " << tuple.ToString();
  ConditionalMeasure oracle = ComputeConditionalMu(query, sigma, db, tuple);
  EXPECT_EQ(fast->value.ToString(), oracle.value.ToString())
      << query.ToString() << " at " << tuple.ToString() << "\n"
      << db.ToString();
  EXPECT_EQ(fast->sigma_satisfiable, oracle.sigma_satisfiable)
      << query.ToString() << "\n" << db.ToString();
}

// Theorem 5: FD-only Σ, for first-order queries with negation as well as
// UCQs; random instances include ones the chase fails on.
TEST_P(ExactPlanSeeds, CondWithFdsMatchesEnumerator) {
  PlanModeGuard mode(plan::PlanMode::kCompiled);
  const ConstraintSet sigmas[] = {
      Fds({FunctionalDependency("R", 2, {0}, 1)}),
      Fds({FunctionalDependency("R", 2, {1}, 0),
           FunctionalDependency("S", 2, {0}, 1)}),
      {}};
  for (std::size_t free : {0u, 1u}) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      Database db = RandomDb(7400 + seed() * 8 + i);
      RandomQueryOptions options = QueryOptions(7500 + seed() * 8 + i, free);
      const Query queries[] = {GenerateRandomFo(options, 0.3),
                               GenerateRandomUcq(options)};
      for (const Query& query : queries) {
        for (const ConstraintSet& sigma : sigmas) {
          for (const Tuple& tuple : ProbesFor(query, db)) {
            ExpectCondMatches(query, sigma, db, tuple, ExactAlgorithm::kChase);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactPlanSeeds, ::testing::Range(0, 4));

TEST(ExactPlanTest, NegativeCasesChooseTheEnumerator) {
  Database db = Db("R(2) = { (c1, _1), (_1, c2), (c2, c2) } "
                   "S(2) = { (c1, c2), (_2, c1) } U(1) = { (c1), (_2) }");
  const ConstraintSet none;
  auto choose = [&](ExactCommand command, const Query& query,
                    const std::vector<Tuple>& tuples = {}) {
    return ChooseExactAlgorithm(command, query, none, db, tuples);
  };
  // Negation.
  Query negation = Q("Q(x) := exists y . R(x, y) & !S(x, y)");
  EXPECT_EQ(choose(ExactCommand::kCertain, negation),
            ExactAlgorithm::kEnumerator);
  EXPECT_EQ(choose(ExactCommand::kBest, negation),
            ExactAlgorithm::kEnumerator);
  EXPECT_EQ(choose(ExactCommand::kBestMu, negation),
            ExactAlgorithm::kEnumerator);
  // Unguarded ∀…→: the guard repeats a variable, misses the bound one, is
  // not an atom, or mentions an outer variable or a constant.
  for (const char* text :
       {"Q(x) := U(x) & forall y . (R(y, y) -> S(x, y))",
        "Q(x) := U(x) & forall y . (R(x, x) -> S(x, y))",
        "Q(x) := U(x) & forall y . ((R(x, y) & S(y, x)) -> U(y))",
        "Q(x) := U(x) & forall y . (R(y, x) -> S(y, y))",
        "Q(x) := U(x) & forall y . (R(y, c1) -> S(x, y))"}) {
    Query unguarded = Q(text);
    EXPECT_EQ(choose(ExactCommand::kCertain, unguarded),
              ExactAlgorithm::kEnumerator)
        << text;
    ExactAlgorithm used = ExactAlgorithm::kNaive;
    EXPECT_EQ(ExactCertainAnswers(unguarded, db, &used),
              CertainAnswers(unguarded, db));
    EXPECT_EQ(used, ExactAlgorithm::kEnumerator);
  }
  // ∀ is Pos∀G but not a UCQ: certain is fast, best is not.
  Query guarded = Q("Q(x) := U(x) & forall y, z . (R(y, z) -> S(x, z))");
  EXPECT_EQ(choose(ExactCommand::kCertain, guarded), ExactAlgorithm::kNaive);
  EXPECT_EQ(choose(ExactCommand::kBest, guarded), ExactAlgorithm::kEnumerator);
  // A null in the formula.
  Query with_null("Q", {0},
                  Formula::Atom("R", {Term::Variable(0),
                                      Term::Val(Value::Null("1"))}),
                  {"x"});
  EXPECT_EQ(choose(ExactCommand::kCertain, with_null),
            ExactAlgorithm::kEnumerator);
  EXPECT_EQ(choose(ExactCommand::kBest, with_null),
            ExactAlgorithm::kEnumerator);
  EXPECT_EQ(choose(ExactCommand::kCond, with_null, {Tuple{Value::Null("1")}}),
            ExactAlgorithm::kEnumerator);
  // Σ with an IND, whether D satisfies it naïvely (R[0] ⊆ R[0]) or not
  // (R[1] ⊆ U[0] fails on c2).
  Query ucq = Q("Q(x) := exists y . R(x, y)");
  const Tuple c1{Value::Constant("c1")};
  for (std::vector<std::size_t> from : {std::vector<std::size_t>{0},
                                        std::vector<std::size_t>{1}}) {
    const bool naive = from[0] == 0;
    ConstraintSet ind = {std::make_shared<InclusionDependency>(
        "R", 2, from, naive ? "R" : "U", naive ? 2 : 1,
        std::vector<std::size_t>{0})};
    EXPECT_EQ(MuLimit(ConstraintSetQuery(ind), db), naive ? 1 : 0);
    EXPECT_EQ(ChooseExactAlgorithm(ExactCommand::kCond, ucq, ind, db, {c1}),
              ExactAlgorithm::kEnumerator);
    ExpectCondMatches(ucq, ind, db, c1, ExactAlgorithm::kEnumerator);
  }
  // Tuple nulls outside Null(D).
  const Tuple outside{Value::Null("not_in_db")};
  const ConstraintSet fd = Fds({FunctionalDependency("R", 2, {0}, 1)});
  EXPECT_EQ(ChooseExactAlgorithm(ExactCommand::kCond, ucq, fd, db, {outside}),
            ExactAlgorithm::kEnumerator);
  ExpectCondMatches(ucq, fd, db, outside, ExactAlgorithm::kEnumerator);
  EXPECT_EQ(choose(ExactCommand::kCompare, ucq, {c1, outside}),
            ExactAlgorithm::kEnumerator);
  // A UCQ whose DNF exceeds kMaxUcqDisjuncts: seven ∨s under one ∧ make
  // 2^7 = 128 clauses; six make 64, which is still normalized.
  auto product_of_unions = [](int factors) {
    std::string text = "Q(x) := U(x)";
    for (int i = 0; i < factors; ++i) {
      text += " & (R(x, c1) | S(x, c" + std::to_string(i) + "))";
    }
    return text;
  };
  Query wide = Q(product_of_unions(7).c_str());
  EXPECT_EQ(UcqDisjunctCount(*wide.formula(), kMaxUcqDisjuncts + 1),
            kMaxUcqDisjuncts + 1);
  for (ExactCommand command : {ExactCommand::kBest, ExactCommand::kBestMu}) {
    EXPECT_EQ(choose(command, wide), ExactAlgorithm::kEnumerator);
  }
  EXPECT_EQ(choose(ExactCommand::kCompare, wide, {c1, c1}),
            ExactAlgorithm::kEnumerator);
  EXPECT_EQ(choose(ExactCommand::kBest, Q(product_of_unions(6).c_str())),
            ExactAlgorithm::kUcq);
  // The positive counterparts do take the fast paths.
  EXPECT_EQ(choose(ExactCommand::kCertain, ucq), ExactAlgorithm::kNaive);
  EXPECT_EQ(choose(ExactCommand::kBest, ucq), ExactAlgorithm::kUcq);
  EXPECT_EQ(choose(ExactCommand::kCompare, ucq, {c1, Tuple{Value::Null("1")}}),
            ExactAlgorithm::kUcq);
  EXPECT_EQ(ChooseExactAlgorithm(ExactCommand::kCond, ucq, fd, db, {c1}),
            ExactAlgorithm::kChase);
}

// A guard that mentions an outer variable is outside Corollary 3: naïve
// evaluation calls ⊥ an answer here, but ⊥ ↦ c falsifies it.
TEST(ExactPlanTest, OuterVariableGuardIsNotAnsweredNaively) {
  Database db = Db("U(1) = { (_1) } E(2) = { (c, d) } R(1) = { (e) }");
  Query query = Q("Q(x) := U(x) & forall y . (E(x, y) -> R(y))");
  ExactAlgorithm used = ExactAlgorithm::kNaive;
  std::vector<Tuple> certain = ExactCertainAnswers(query, db, &used);
  EXPECT_EQ(used, ExactAlgorithm::kEnumerator);
  EXPECT_TRUE(certain.empty());
  EXPECT_EQ(NaiveEvaluate(query, db).size(), 1u);
}

TEST(ExactPlanTest, InterpretModeAlwaysRunsTheEnumerator) {
  Database db = Db("R(2) = { (c1, _1), (_1, c2) } S(2) = { (c1, c2) }");
  Query query = Q("Q(x) := exists y . R(x, y) & S(y, x)");
  const ConstraintSet fd = Fds({FunctionalDependency("R", 2, {0}, 1)});
  const Tuple c1{Value::Constant("c1")};
  const Tuple c2{Value::Constant("c2")};
  std::string explain_compiled;
  {
    PlanModeGuard mode(plan::PlanMode::kCompiled);
    explain_compiled =
        ExplainExactPlan(ExactCommand::kCond, query, fd, db, {c1});
  }
  PlanModeGuard mode(plan::PlanMode::kInterpret);
  // The explain line names the production algorithm in either mode.
  EXPECT_EQ(ExplainExactPlan(ExactCommand::kCond, query, fd, db, {c1}),
            explain_compiled);
  EXPECT_EQ(explain_compiled, "exact: chase (Theorem 5)\n");
  ExactAlgorithm used = ExactAlgorithm::kNaive;
  ExactCertainAnswers(query, db, &used);
  EXPECT_EQ(used, ExactAlgorithm::kEnumerator);
  used = ExactAlgorithm::kUcq;
  ExactBestAnswers(query, db, &used);
  EXPECT_EQ(used, ExactAlgorithm::kEnumerator);
  used = ExactAlgorithm::kUcq;
  ExactBestMuAnswers(query, db, &used);
  EXPECT_EQ(used, ExactAlgorithm::kEnumerator);
  used = ExactAlgorithm::kUcq;
  ExactCompare(query, db, c1, c2, &used);
  EXPECT_EQ(used, ExactAlgorithm::kEnumerator);
  used = ExactAlgorithm::kChase;
  ASSERT_TRUE(ExactConditionalMu(query, fd, db, c1, &used).ok());
  EXPECT_EQ(used, ExactAlgorithm::kEnumerator);
}

TEST(ExactPlanTest, FailedChaseReadsAsUnsatisfiable) {
  PlanModeGuard mode(plan::PlanMode::kCompiled);
  // R: {0} -> 1 forces c2 = c3.
  Database db = Db("R(2) = { (c1, c2), (c1, c3), (_1, c2) }");
  Query query = Q("Q(x) := exists y . R(x, y)");
  ExpectCondMatches(query, Fds({FunctionalDependency("R", 2, {0}, 1)}), db,
                    Tuple{Value::Constant("c1")}, ExactAlgorithm::kChase);
}

TEST(ExactPlanTest, CancelledChaseIsAnErrorNotZero) {
  PlanModeGuard mode(plan::PlanMode::kCompiled);
  Database db = Db("R(2) = { (c1, _1), (c1, c2) }");
  Query query = Q("Q(x) := exists y . R(x, y)");
  CancelToken token;
  token.Cancel();
  ScopedCancelToken scoped(&token);
  StatusOr<ExactConditional> result =
      ExactConditionalMu(query, Fds({FunctionalDependency("R", 2, {0}, 1)}),
                         db, Tuple{Value::Constant("c1")});
  EXPECT_FALSE(result.ok());
}

svc::Request Req(const std::string& command, const std::string& args = "") {
  svc::Request request;
  request.command = command;
  request.args = args;
  request.session = "exact";
  return request;
}

TEST(ExactPlanTest, ServedCondUnderCancellationIsDeadlineExceeded) {
  PlanModeGuard mode(plan::PlanMode::kCompiled);
  svc::Dispatcher dispatcher({});
  dispatcher.Execute(Req("db", "R(2) = { (c1, _1), (c1, c2) }"));
  dispatcher.Execute(Req("query", "Q(x) := exists y . R(x, y)"));
  dispatcher.Execute(Req("fd", "R 2 0 1"));
  CancelToken token;
  token.Cancel();
  ScopedCancelToken scoped(&token);
  svc::Request cond = Req("cond", "(c1)");
  cond.no_cache = true;
  svc::Response response = dispatcher.Execute(cond);
  EXPECT_EQ(response.status, svc::WireStatus::kDeadlineExceeded)
      << response.payload;
  EXPECT_EQ(response.payload.find("mu(Q|Sigma)"), std::string::npos)
      << response.payload;
}

// R = {(c0, ⊥0), …, (c49, ⊥49)}: the UCQ best-answer search compares all
// pairs of the 100 candidates and takes seconds, so only a deadline check
// inside it can stop it in time.
std::string ManyNullsDb() {
  std::string text = "R(2) = { ";
  for (int i = 0; i < 50; ++i) {
    if (i > 0) text += ", ";
    text += "(c" + std::to_string(i) + ", _" + std::to_string(i) + ")";
  }
  return text + " }";
}

TEST(ExactPlanTest, UcqBestStopsAtTheDeadline) {
  PlanModeGuard mode(plan::PlanMode::kCompiled);
  const std::string db_text = ManyNullsDb();
  const char* query_text = "Q(x) := exists y . R(x, y)";
  using Clock = std::chrono::steady_clock;
  constexpr auto kDeadline = std::chrono::milliseconds(30);
  // Cancellation is cooperative but prompt: far sooner than completion.
  constexpr auto kPrompt = std::chrono::milliseconds(400);
  {
    Database db = Db(db_text.c_str());
    Query query = Q(query_text);
    CancelToken token;
    token.SetDeadline(Clock::now() + kDeadline);
    ScopedCancelToken scoped(&token);
    Clock::time_point start = Clock::now();
    ExactAlgorithm used = ExactAlgorithm::kEnumerator;
    ExactBestAnswers(query, db, &used);
    Clock::duration elapsed = Clock::now() - start;
    EXPECT_EQ(used, ExactAlgorithm::kUcq);
    EXPECT_TRUE(token.cancelled());
    EXPECT_LT(elapsed, kPrompt);
  }
  svc::Dispatcher dispatcher({});
  dispatcher.Execute(Req("db", db_text));
  dispatcher.Execute(Req("query", query_text));
  CancelToken token;
  token.SetDeadline(Clock::now() + kDeadline);
  ScopedCancelToken scoped(&token);
  svc::Request best = Req("best");
  best.no_cache = true;
  Clock::time_point start = Clock::now();
  svc::Response response = dispatcher.Execute(best);
  Clock::duration elapsed = Clock::now() - start;
  EXPECT_EQ(response.status, svc::WireStatus::kDeadlineExceeded)
      << response.payload;
  EXPECT_LT(elapsed, kPrompt);
}

TEST(ExactPlanTest, ServedExplainAppendsTheExactLine) {
  svc::Dispatcher dispatcher({});
  dispatcher.Execute(Req("db", "R(2) = { (c1, _1), (c2, c1) }"));
  dispatcher.Execute(Req("query", "Q(x) := exists y . R(x, y)"));
  dispatcher.Execute(Req("ind", "R 2 1 R 2 0"));
  const std::pair<svc::Request, const char*> cases[] = {
      {Req("certain"), "exact: naive (Corollary 3)\n"},
      {Req("best"), "exact: ucq (Theorem 8)\n"},
      {Req("bestmu"), "exact: ucq (Theorem 8)\n"},
      {Req("compare", "(c1) (_1)"), "exact: ucq (Theorem 8)\n"},
      // R[1] ⊆ R[0] fails naïvely on ⊥1.
      {Req("cond", "(c1)"), "exact: enumerator (no theorem applies)\n"},
  };
  for (auto [request, line] : cases) {
    request.explain = true;
    std::string payloads[2];
    for (int m = 0; m < 2; ++m) {
      PlanModeGuard mode(m == 0 ? plan::PlanMode::kCompiled
                                : plan::PlanMode::kInterpret);
      svc::Response response = dispatcher.Execute(request);
      EXPECT_EQ(response.status, svc::WireStatus::kOk) << response.payload;
      payloads[m] = response.payload;
    }
    EXPECT_EQ(payloads[0], payloads[1]);
    const std::string& payload = payloads[0];
    ASSERT_GE(payload.size(), std::string(line).size());
    EXPECT_EQ(payload.substr(payload.size() - std::string(line).size()), line)
        << payload;
  }
  // Non-exact commands keep the plan alone; bad tuples are errors.
  svc::Request naive = Req("naive");
  naive.explain = true;
  EXPECT_EQ(dispatcher.Execute(naive).payload.find("exact:"),
            std::string::npos);
  svc::Request bad = Req("cond", "(c1, c2)");
  bad.explain = true;
  EXPECT_EQ(dispatcher.Execute(bad).status, svc::WireStatus::kErr);
}

TEST(ExactPlanTest, ServedConstraintArgumentsAreValidated) {
  svc::Dispatcher dispatcher({});
  for (const char* args : {"R 2 0 5", "R 2 7 1", "R 2 0 0", "R 2 x 1"}) {
    svc::Response response = dispatcher.Execute(Req("fd", args));
    EXPECT_EQ(response.status, svc::WireStatus::kErr) << args;
  }
  for (const char* args : {"R 2 0 S 2 7", "R 2 3 S 2 0", "R 2 0 S 2 0,1"}) {
    svc::Response response = dispatcher.Execute(Req("ind", args));
    EXPECT_EQ(response.status, svc::WireStatus::kErr) << args;
  }
  EXPECT_EQ(dispatcher.Execute(Req("constraints")).payload, "  (none)\n");
  EXPECT_EQ(dispatcher.Execute(Req("fd", "R 2 0 1")).payload,
            "added R: {0} -> 1");
}

#if ZEROONE_OBS_ENABLED
TEST(ExactPlanTest, CountersRecordEachChoice) {
  Database db = Db("R(2) = { (c1, _1), (_1, c2) }");
  Query ucq = Q("Q(x) := exists y . R(x, y)");
  Query negation = Q("Q(x) := exists y . R(x, y) & !R(y, x)");
  obs::Registry& registry = obs::Registry::Global();
  auto count = [&](const char* name) {
    return registry.GetCounter(std::string("core.exact.") + name).value();
  };
  PlanModeGuard mode(plan::PlanMode::kCompiled);
  const std::uint64_t naive = count("naive"), ucq_count = count("ucq"),
                      chase = count("chase"), enumerator = count("enumerator");
  ExactCertainAnswers(ucq, db);
  ExactBestAnswers(ucq, db);
  ASSERT_TRUE(ExactConditionalMu(ucq, {}, db, Tuple{Value::Constant("c1")})
                  .ok());
  ExactCertainAnswers(negation, db);
  EXPECT_EQ(count("naive") - naive, 1u);
  EXPECT_EQ(count("ucq") - ucq_count, 1u);
  EXPECT_EQ(count("chase") - chase, 1u);
  EXPECT_EQ(count("enumerator") - enumerator, 1u);
}
#endif

}  // namespace
}  // namespace zeroone

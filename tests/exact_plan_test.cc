// The exact-plan battery: every fast path core/exact_plan picks is held
// byte-identical to the generic enumerator it replaces, on random inputs
// over several seeds, and the choice itself is asserted — the negative
// cases (negation, unguarded ∀…→, nulls in the formula, Σ with an IND,
// tuple nulls outside Null(D), UCQs whose DNF is too large to build) must
// run the enumerator, and so must every request under the interpreting
// reference plan mode (the oracle gate). The Theorem 3 path of `muk` is
// held equal to MuK at every par width.

#include "core/exact_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "constraints/fd.h"
#include "constraints/ind.h"
#include "core/comparison.h"
#include "core/conditional.h"
#include "core/measure.h"
#include "core/support.h"
#include "core/support_polynomial.h"
#include "data/io.h"
#include "datalog/measure.h"
#include "datalog/parser.h"
#include "gen/random_db.h"
#include "gen/random_query.h"
#include "obs/metrics.h"
#include "par/pool.h"
#include "plan/mode.h"
#include "query/eval.h"
#include "query/fragments.h"
#include "query/parser.h"
#include "plan_mode_guard.h"
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

// Runs `body` with the morsel budget at `width`, then restores the budget.
template <typename Body>
auto AtWidth(std::size_t width, Body body) {
  const std::size_t previous = par::par_threads();
  par::SetParThreads(width);
  auto result = body();
  par::SetParThreads(previous);
  return result;
}

// ExactMuK equals MuK byte for byte in both plan modes at widths 1, 2, 4
// and 8, at k = a = |C ∪ Const(D)|, a + 1, a + 3, and 48 when 48^m stays
// small enough to enumerate in the oracle. The poly path runs in compiled
// mode, the enumerator under the oracle gate.
void ExpectMuKMatches(const Query& query, const Database& db,
                      const Tuple& tuple) {
  SupportInstance instance = MakeSupportInstance(query, db, tuple);
  const std::size_t a = std::max<std::size_t>(instance.prefix.size(), 1);
  std::vector<std::size_t> ks = {a, a + 1, a + 3};
  if (instance.nulls.size() <= 2 && a + 3 < 48) ks.push_back(48);
  for (std::size_t k : ks) {
    const std::string expected = MuK(query, db, tuple, k).ToString();
    for (plan::PlanMode mode :
         {plan::PlanMode::kCompiled, plan::PlanMode::kInterpret}) {
      PlanModeGuard guard(mode);
      for (std::size_t width : {1u, 2u, 4u, 8u}) {
        ExactAlgorithm used = ExactAlgorithm::kNaive;
        StatusOr<Rational> mu = AtWidth(
            width, [&] { return ExactMuK(query, db, tuple, k, &used); });
        ASSERT_TRUE(mu.ok()) << mu.status().message();
        EXPECT_EQ(mu->ToString(), expected)
            << query.ToString() << " at " << tuple.ToString() << ", k = " << k
            << ", width " << width << "\n" << db.ToString();
        EXPECT_EQ(used, mode == plan::PlanMode::kCompiled
                            ? ExactAlgorithm::kPoly
                            : ExactAlgorithm::kEnumerator)
            << query.ToString() << ", k = " << k;
      }
    }
  }
}

// Theorem 3: µ^k from the partition polynomial, on random unary and
// Boolean queries with negation, a formula that mentions a null, and a
// tuple null outside Null(D).
TEST(MuKPlanDiffParallelTest, ExactMuKMatchesMuKInBothModesAtEveryWidth) {
  for (std::uint64_t i = 0; i < 3; ++i) {
    Database db = RandomDb(7400 + i);
    for (std::size_t free : {0u, 1u}) {
      Query query = GenerateRandomFo(QueryOptions(7500 + i * 2 + free, free),
                                     /*negation_probability=*/0.4);
      std::vector<Tuple> probes = ProbesFor(query, db);
      // The first and last probes: a value of adom(D) and one outside it.
      ExpectMuKMatches(query, db, probes.front());
      if (probes.size() > 1) ExpectMuKMatches(query, db, probes.back());
    }
  }
  Database db = Db("R(2) = { (c1, _1), (_1, c2), (c2, c3) }");
  ExpectMuKMatches(Q("Q(x) := exists y . R(x, y) & !R(y, x)"), db,
                   Tuple{Value::Constant("c2")});
  ExpectMuKMatches(Q("Q() := exists x . R(x, x) | !R(c2, c3)"), db, Tuple{});
  Query with_null("Q", {0},
                  Formula::Atom("R", {Term::Variable(0),
                                      Term::Val(Value::Null("2"))}),
                  {"x"});
  ExpectMuKMatches(with_null, db, Tuple{Value::Constant("c1")});
  ExpectMuKMatches(Q("Q(x) := exists y . R(x, y)"), db,
                   Tuple{Value::Null("not_in_db")});
}

// Everything the bounded searches decide for (Q, D) and the probes, as
// one string: certain and possible answers, both decisions per probe, Best
// and Best_µ, Sep both ways on neighbouring probes, the dominance order of
// the support table over the probes (row i, column j reads 1 iff
// Supp(probe i) ⊆ Supp(probe j)), and the set of the table's distinct
// columns. The table's columns are the walk's points, which differ between
// the walks, but each valuation's column is that of its orbit's point, so
// neither the order nor the set of distinct columns may differ.
std::string BoundedSearchDecisions(const Query& query, const Database& db,
                                   const std::vector<Tuple>& probes) {
  auto show = [](const std::vector<Tuple>& tuples) {
    std::string text;
    for (const Tuple& t : tuples) text += t.ToString() + " ";
    return text + "\n";
  };
  std::string out = "certain " + show(CertainAnswers(query, db)) +
                    "possible " + show(PossibleAnswers(query, db)) +
                    "best " + show(BestAnswers(query, db)) + "bestmu " +
                    show(BestMuAnswers(query, db));
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const Tuple& a = probes[i];
    const Tuple& b = probes[(i + 1) % probes.size()];
    out += a.ToString() + " possible " +
           std::to_string(IsPossibleAnswer(query, db, a)) + " certain " +
           std::to_string(IsCertainAnswer(query, db, a)) + " sep " +
           std::to_string(Separates(query, db, a, b)) +
           std::to_string(Separates(query, db, b, a)) + "\n";
  }
  SupportTable table = ComputeSupportTable(query, db, probes);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    for (std::size_t j = 0; j < probes.size(); ++j) {
      bool subset = true;
      for (std::size_t v = 0; v < table.valuation_count && subset; ++v) {
        subset = !table.support[i][v] || table.support[j][v];
      }
      out += subset ? '1' : '0';
    }
    out += '\n';
  }
  std::set<std::string> columns;
  for (std::size_t v = 0; v < table.valuation_count; ++v) {
    std::string column;
    for (const std::vector<bool>& row : table.support) {
      column += row[v] ? '1' : '0';
    }
    columns.insert(column);
  }
  for (const std::string& column : columns) out += column + " ";
  return out;
}

// The orbit walk decides every bounded search exactly as the odometer over
// the whole range does: compiled mode (one point per orbit) against the
// oracle gate (every point of (A ∪ A_m)^m), on random unary and Boolean
// queries with negation, a formula that mentions a null, a tuple null
// outside Null(D), a tuple constant outside D, and a database without
// constants, where only distinct free blocks decide. The partition pass on
// the same walk gives byte-identical polynomials at widths 1 and 4.
TEST(OrbitPlanDiffParallelTest, BoundedSearchesMatchTheOdometer) {
  auto expect_match = [](const Query& query, const Database& db,
                         std::vector<Tuple> probes) {
    if (query.arity() == 1) probes.push_back(Tuple{Value::Null("not_in_db")});
    std::string orbits, odometer;
    {
      PlanModeGuard guard(plan::PlanMode::kCompiled);
      orbits = BoundedSearchDecisions(query, db, probes);
    }
    {
      PlanModeGuard guard(plan::PlanMode::kInterpret);
      odometer = BoundedSearchDecisions(query, db, probes);
    }
    EXPECT_EQ(orbits, odometer) << query.ToString() << "\n" << db.ToString();
    PlanModeGuard guard(plan::PlanMode::kCompiled);
    for (const Tuple& probe : {probes.front(), probes.back()}) {
      auto poly = [&] {
        return ComputeSupportPolynomial(query, db, probe).count.ToString();
      };
      const std::string serial = AtWidth(1, poly);
      EXPECT_EQ(AtWidth(4, poly), serial)
          << query.ToString() << " at " << probe.ToString();
    }
  };
  for (std::uint64_t i = 0; i < 3; ++i) {
    Database db = RandomDb(7600 + i, /*nulls=*/3);
    for (std::size_t free : {0u, 1u}) {
      Query query = GenerateRandomFo(QueryOptions(7700 + i * 2 + free, free),
                                     /*negation_probability=*/0.4);
      expect_match(query, db, ProbesFor(query, db));
    }
  }
  Database db = Db("R(2) = { (c1, _1), (_1, c2), (c2, c3), (_2, _3) }");
  expect_match(Q("Q(x) := exists y . R(x, y) & !R(y, x)"), db,
               UnaryProbes(db));
  expect_match(Q("Q() := exists x . R(x, x) | !R(c2, c3)"), db, {Tuple{}});
  Query with_null("Q", {0},
                  Formula::Atom("R", {Term::Variable(0),
                                      Term::Val(Value::Null("2"))}),
                  {"x"});
  expect_match(with_null, db, UnaryProbes(db));
  // No constants at all: only two distinct free values tell ⊥1 from ⊥2.
  Database free_only = Db("R(2) = { (_1, _2) }");
  expect_match(Q("Q() := exists x . exists y . R(x, y) & !(x = y)"),
               free_only, {Tuple{}});
  expect_match(Q("Q(x) := exists y . R(x, y) & !(x = y)"), free_only,
               UnaryProbes(free_only));
}

// The partition pass calls the instance's witness from several pool
// workers at once for every caller, not only for `muk` and `poly`: the
// datalog witness (a bottom-up run on each worker's valuation image) and
// cond's Σ and Σ ∧ Q witnesses must give byte-identical polynomials at
// widths 1 and 4.
TEST(PartitionPassParallelTest, DatalogAndCondWitnessesMatchAcrossWidths) {
  Database db = Db("E(2) = { (c1, _1), (_1, _2), (_2, c2), (_3, _4), "
                   "(c2, _3), (_4, c1) } U(1) = { (c1), (_2) }");
  StatusOr<DatalogProgram> program = ParseDatalogProgram(
      "T(X, Y) :- E(X, Y). T(X, Z) :- E(X, Y), T(Y, Z). ?- T");
  ASSERT_TRUE(program.ok()) << program.status().message();
  const Tuple pair{Value::Constant("c1"), Value::Constant("c2")};
  auto datalog = [&] {
    return ComputeGenericSupportPolynomial(
               MakeDatalogInstance(*program, db, pair), db)
               .count.ToString() +
           " mu = " + DatalogMuViaPolynomial(*program, db, pair).ToString();
  };
  const ConstraintSet sigma = {
      std::make_shared<FunctionalDependency>("E", 2,
                                             std::vector<std::size_t>{0}, 1),
      std::make_shared<InclusionDependency>("U", 1,
                                            std::vector<std::size_t>{0}, "E",
                                            2, std::vector<std::size_t>{0})};
  const Query query = Q("Q(x) := exists y . E(x, y) & !E(y, x)");
  auto cond = [&] {
    ConditionalMeasure measure =
        ComputeConditionalMu(query, sigma, db, Tuple{Value::Constant("c1")});
    return measure.numerator.ToString() + " / " +
           measure.denominator.ToString() + " mu = " +
           measure.value.ToString();
  };
  const std::string datalog_serial = AtWidth(1, datalog);
  const std::string cond_serial = AtWidth(1, cond);
  EXPECT_EQ(AtWidth(4, datalog), datalog_serial);
  EXPECT_EQ(AtWidth(4, cond), cond_serial);
}

TEST(ExactPlanTest, MukBelowThePrefixIsRefused) {
  Database db = Db("R(2) = { (c1, _1), (c2, c3) }");
  StatusOr<Rational> mu =
      ExactMuK(Q("Q(x) := exists y . R(x, y)"), db,
               Tuple{Value::Constant("c1")}, 2);
  ASSERT_FALSE(mu.ok());
  EXPECT_EQ(mu.status().message(), "k must be at least |C ∪ Const(D)| = 3");
}

TEST(ExactPlanTest, NegativeCasesChooseTheEnumerator) {
  Database db = Db("R(2) = { (c1, _1), (_1, c2), (c2, c2) } "
                   "S(2) = { (c1, c2), (_2, c1) } U(1) = { (c1), (_2) }");
  const ConstraintSet none;
  auto choose = [&](ExactCommand command, const Query& query,
                    const std::vector<Tuple>& tuples = {}) {
    return ChooseExactAlgorithm(command, query, none, db, ExactArgs{tuples});
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
    EXPECT_EQ(ChooseExactAlgorithm(ExactCommand::kCond, ucq, ind, db,
                                   ExactArgs{{c1}}),
              ExactAlgorithm::kEnumerator);
    ExpectCondMatches(ucq, ind, db, c1, ExactAlgorithm::kEnumerator);
  }
  // Tuple nulls outside Null(D).
  const Tuple outside{Value::Null("not_in_db")};
  const ConstraintSet fd = Fds({FunctionalDependency("R", 2, {0}, 1)});
  EXPECT_EQ(ChooseExactAlgorithm(ExactCommand::kCond, ucq, fd, db,
                                 ExactArgs{{outside}}),
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
  EXPECT_EQ(ChooseExactAlgorithm(ExactCommand::kCond, ucq, fd, db,
                                 ExactArgs{{c1}}),
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
        ExplainExactPlan(ExactCommand::kCond, query, fd, db, ExactArgs{{c1}});
  }
  PlanModeGuard mode(plan::PlanMode::kInterpret);
  // The explain line names the production algorithm in either mode.
  EXPECT_EQ(ExplainExactPlan(ExactCommand::kCond, query, fd, db,
                             ExactArgs{{c1}}),
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
      {Req("muk", "4 (c1)"), "exact: poly (Theorem 3)\n"},
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

// The partition pass visits Σ_t S(m,t)·Σ_j C(t,j)·(a)_j (ρ, σ) points,
// and the poly path counts those points, never valuations.
TEST(ExactPlanTest, PolyMukCountsPartitionPointsNotValuations) {
  obs::Registry& registry = obs::Registry::Global();
  obs::Counter& maps =
      registry.GetCounter("support.partition_maps_enumerated");
  obs::Counter& valuations =
      registry.GetCounter("support.valuations_enumerated");
  obs::Counter& poly = registry.GetCounter("core.exact.poly");
  PlanModeGuard mode(plan::PlanMode::kCompiled);
  const Query query = Q("Q(x) := exists y . R(x, y) & !R(y, x)");
  const Tuple c1{Value::Constant("c1")};
  // (m, a) = (4, 4), (3, 2) and (0, 2).
  const std::pair<const char*, std::uint64_t> cases[] = {
      {"R(2) = { (c1, _1), (c2, _2), (c3, _3), (c4, _4) }", 799},
      {"R(2) = { (c1, _1), (_2, _3), (c2, c1) }", 37},
      {"R(2) = { (c1, c2) }", 1}};
  for (const auto& [text, points] : cases) {
    Database db = Db(text);
    std::uint64_t before = maps.value();
    ComputeSupportPolynomial(query, db, c1);
    EXPECT_EQ(maps.value() - before, points) << text;
    before = maps.value();
    const std::uint64_t valuations_before = valuations.value();
    const std::uint64_t poly_before = poly.value();
    ExactAlgorithm used = ExactAlgorithm::kEnumerator;
    ASSERT_TRUE(ExactMuK(query, db, c1, 12, &used).ok());
    EXPECT_EQ(used, ExactAlgorithm::kPoly);
    EXPECT_EQ(poly.value() - poly_before, 1u);
    EXPECT_EQ(maps.value() - before, points) << text;
    EXPECT_EQ(valuations.value(), valuations_before) << text;
  }
}
#endif

}  // namespace
}  // namespace zeroone

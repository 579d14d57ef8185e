#include "core/comparison.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/measure.h"
#include "core/support.h"
#include "data/io.h"
#include "gen/scenarios.h"
#include "plan/mode.h"
#include "plan_mode_guard.h"
#include "query/parser.h"

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

TEST(ComparisonTest, PaperSection5Example) {
  // R = {(1,⊥1),(2,⊥2)}, S = {(1,⊥2),(⊥3,⊥1)}, Q = R − S:
  // (1,⊥1) ◁ (2,⊥2) and Best(Q,D) = {(2,⊥2)}.
  BestAnswerExample example = PaperBestAnswerExample();
  EXPECT_TRUE(StrictlyDominated(example.query, example.db, example.tuple_a,
                                example.tuple_b));
  EXPECT_FALSE(StrictlyDominated(example.query, example.db, example.tuple_b,
                                 example.tuple_a));
  std::vector<Tuple> best = BestAnswers(example.query, example.db);
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0], example.tuple_b);
  // And certain answers are empty, yet Best is not.
  EXPECT_TRUE(CertainAnswers(example.query, example.db).empty());
}

TEST(ComparisonTest, IntroExampleSupportComparison) {
  // Section 1: (c2,⊥2) has strictly more support than (c1,⊥1), and no tuple
  // has more support than (c2,⊥2).
  IntroExample example = PaperIntroExample();
  Tuple a{Value::Constant("c1"), Value::Null("1")};
  Tuple b{Value::Constant("c2"), Value::Null("2")};
  EXPECT_TRUE(StrictlyDominated(example.query, example.db, a, b));
  std::vector<Tuple> best = BestAnswers(example.query, example.db);
  EXPECT_TRUE(std::count(best.begin(), best.end(), b));
  EXPECT_FALSE(std::count(best.begin(), best.end(), a));
}

TEST(ComparisonTest, SeparationAsymmetry) {
  BestAnswerExample example = PaperBestAnswerExample();
  // Supp(a) ⊆ Supp(b) means Sep(a,b) is false but Sep(b,a) is true.
  EXPECT_FALSE(Separates(example.query, example.db, example.tuple_a,
                         example.tuple_b));
  EXPECT_TRUE(Separates(example.query, example.db, example.tuple_b,
                        example.tuple_a));
}

TEST(ComparisonTest, NaiveEvaluationCannotDecideDominance) {
  // Section 5.1: D with R = {(1,⊥),(⊥,2)}, Q returns R; for ā = (1,2) and
  // b̄ = (1,1), naive evaluation of Q(ā) → Q(b̄) is true, yet ā ⊴ b̄ fails.
  Database db = Db("R(2) = { (1, _s51), (_s51b, 2) }");
  Query q = Q("Q(x, y) := R(x, y)");
  Tuple a{Value::Constant("1"), Value::Constant("2")};
  Tuple b{Value::Constant("1"), Value::Constant("1")};
  EXPECT_TRUE(Separates(q, db, a, b));
  EXPECT_FALSE(WeaklyDominated(q, db, a, b));
}

TEST(ComparisonTest, CertainAnswerDominatesEverything) {
  Database db = Db("R(2) = { (a, b), (a, _d1) }");
  Query q = Q("Q(x, y) := R(x, y)");
  Tuple certain{Value::Constant("a"), Value::Constant("b")};
  // A certain answer has full support: nothing separates any tuple from
  // above it... i.e. every tuple is weakly dominated by it only if its own
  // support is full too; here (a,⊥1) ⊴ (a,b).
  Tuple partial{Value::Constant("a"), Value::Null("d1")};
  EXPECT_TRUE(WeaklyDominated(q, db, partial, certain));
  // (a,b) is certain: no valuation separates it from anything with full
  // support; it is among the best answers.
  std::vector<Tuple> best = BestAnswers(q, db);
  EXPECT_TRUE(std::count(best.begin(), best.end(), certain));
}

TEST(ComparisonTest, BestEqualsCertainWhenCertainNonEmpty) {
  // If (Q,D) ≠ ∅ then Best(Q,D) = (Q,D).
  Database db = Db("R(2) = { (a, b), (a, _e1) }");
  Query q = Q("Q(x, y) := R(x, y)");
  std::vector<Tuple> certain = CertainAnswers(q, db);
  ASSERT_FALSE(certain.empty());
  std::vector<Tuple> best = BestAnswers(q, db);
  std::sort(certain.begin(), certain.end());
  std::sort(best.begin(), best.end());
  EXPECT_EQ(best, certain);
}

TEST(ComparisonTest, Proposition7Orthogonality) {
  // Without G: Best = {a, b}, µ(a) = 1, µ(b) = 0 — (best, µ=1) and
  // (best, µ=0) realized.
  OrthogonalityExample plain = Proposition7Example(false);
  std::vector<Tuple> best = BestAnswers(plain.query, plain.db);
  EXPECT_TRUE(std::count(best.begin(), best.end(), plain.tuple_a));
  EXPECT_TRUE(std::count(best.begin(), best.end(), plain.tuple_b));
  EXPECT_EQ(MuLimit(plain.query, plain.db, plain.tuple_a), 1);
  EXPECT_EQ(MuLimit(plain.query, plain.db, plain.tuple_b), 0);

  // With G: g dominates both; a and b are non-best with unchanged measures
  // — (non-best, µ=1) and (non-best, µ=0) realized.
  OrthogonalityExample expanded = Proposition7Example(true);
  std::vector<Tuple> best_expanded =
      BestAnswers(expanded.query, expanded.db);
  Tuple g{Value::Constant("g")};
  EXPECT_TRUE(std::count(best_expanded.begin(), best_expanded.end(), g));
  EXPECT_FALSE(
      std::count(best_expanded.begin(), best_expanded.end(), expanded.tuple_a));
  EXPECT_FALSE(
      std::count(best_expanded.begin(), best_expanded.end(), expanded.tuple_b));
  EXPECT_EQ(MuLimit(expanded.query, expanded.db, expanded.tuple_a), 1);
  EXPECT_EQ(MuLimit(expanded.query, expanded.db, expanded.tuple_b), 0);
}

TEST(ComparisonTest, Proposition7MeasuresAtFiniteK) {
  // µ^k(Q,D,a) = 1 − 1/k and µ^k(Q,D,b) = 1/k, per the proof.
  OrthogonalityExample plain = Proposition7Example(false);
  for (std::size_t k : {4u, 8u}) {
    std::int64_t ki = static_cast<std::int64_t>(k);
    EXPECT_EQ(MuK(plain.query, plain.db, plain.tuple_a, k),
              Rational(ki - 1, ki));
    EXPECT_EQ(MuK(plain.query, plain.db, plain.tuple_b, k), Rational(1, ki));
  }
}

TEST(ComparisonTest, BestMuAnswers) {
  // Best_µ keeps only almost-certainly-true best answers: for Prop 7's
  // plain example, Best = {a, b} but Best_µ = {a}.
  OrthogonalityExample plain = Proposition7Example(false);
  std::vector<Tuple> best_mu = BestMuAnswers(plain.query, plain.db);
  ASSERT_EQ(best_mu.size(), 1u);
  EXPECT_EQ(best_mu[0], plain.tuple_a);
}

TEST(ComparisonTest, SupportTableCountsValuations) {
  // One null, A = {1,2} ∪ {} , bounded domain has |A|+1 = 3 values.
  Database db = Db("R(2) = { (1, _st1) }");
  Query q = Q("Q(x, y) := R(x, y)");
  Tuple t{Value::Constant("1"), Value::Null("st1")};
  SupportTable table = ComputeSupportTable(q, db, {t});
  EXPECT_EQ(table.valuation_count, 2u);  // |A ∪ A_m| = 2 for one null: {1}∪fresh.
  // The tuple is certain: all valuations witness.
  EXPECT_EQ(std::count(table.support[0].begin(), table.support[0].end(), true),
            static_cast<std::ptrdiff_t>(table.valuation_count));
}

// The bounded search ranges over the nulls the formula mentions too: with
// Q(x) := R(x, ⊥9) and D = {R(c1, c2)}, v(⊥9) = c2 witnesses (c1) and not
// (c3), which a search that leaves ⊥9 alone never sees. In both plan modes
// (orbit walk and odometer).
TEST(ComparisonTest, FormulaNullIsInTheRange) {
  Database db = Db("R(2) = { (c1, c2) }");
  Query q("Q", {0},
          Formula::Atom("R", {Term::Variable(0), Term::Val(Value::Null("9"))}),
          {"x"});
  const Tuple c1{Value::Constant("c1")};
  const Tuple c3{Value::Constant("c3")};
  for (plan::PlanMode mode :
       {plan::PlanMode::kCompiled, plan::PlanMode::kInterpret}) {
    PlanModeGuard guard(mode);
    EXPECT_TRUE(Separates(q, db, c1, c3));
    EXPECT_FALSE(Separates(q, db, c3, c1));
    SupportTable table = ComputeSupportTable(q, db, {c1, c3});
    EXPECT_EQ(std::count(table.support[0].begin(), table.support[0].end(),
                         true),
              1);
  }
}

TEST(ComparisonTest, BooleanQueryComparison) {
  // Arity-0 queries: the only tuple is (); it is best trivially.
  Database db = Db("R(1) = { (_bq1) }");
  Query q = Q(":= exists x . R(x)");
  std::vector<Tuple> best = BestAnswers(q, db);
  ASSERT_EQ(best.size(), 1u);
  EXPECT_TRUE(best[0].empty());
}

}  // namespace
}  // namespace zeroone

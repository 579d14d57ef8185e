#include "core/measure.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/support.h"
#include "core/support_polynomial.h"
#include "data/io.h"
#include "gen/random_db.h"
#include "gen/random_query.h"
#include "gen/scenarios.h"
#include "plan/mode.h"
#include "plan_mode_guard.h"
#include "query/eval.h"
#include "query/fragments.h"
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

TEST(MuKTest, IntroExampleConvergesToOne) {
  // (c1,⊥1) is a naive answer to Q = R1 − R2; µ^k must approach 1: the only
  // failing valuations have v(⊥1) = v(⊥2) (and a few ⊥3 coincidences).
  IntroExample example = PaperIntroExample();
  Tuple a{Value::Constant("c1"), Value::Null("1")};
  Rational mu5 = MuK(example.query, example.db, a, 5);
  Rational mu10 = MuK(example.query, example.db, a, 10);
  Rational mu20 = MuK(example.query, example.db, a, 20);
  EXPECT_LT(mu5, mu10);
  EXPECT_LT(mu10, mu20);
  EXPECT_LT(mu20, Rational(1));
  EXPECT_GT(mu20, Rational(9, 10));
  EXPECT_EQ(MuLimit(example.query, example.db, a), 1);
}

TEST(MuKTest, NonAnswerConvergesToZero) {
  IntroExample example = PaperIntroExample();
  // (c2,⊥1) is in R2 too, hence never a naive answer.
  Tuple bad{Value::Constant("c2"), Value::Null("1")};
  EXPECT_EQ(MuK(example.query, example.db, bad, 15), Rational(0));
  EXPECT_EQ(MuLimit(example.query, example.db, bad), 0);
}

TEST(MuKTest, ExactValueOnOneNull) {
  // D: R = {(a,⊥)}, Q = ∃x R(a,x) ∧ x ≠ b. Fails only when v(⊥) = b:
  // µ^k = (k−1)/k.
  Database db = Db("R(2) = { (a, _x1) }");
  Query q = Q(":= exists x . R(a, x) & x != b");
  for (std::size_t k : {3u, 5u, 9u}) {
    EXPECT_EQ(MuK(q, db, k),
              Rational(static_cast<std::int64_t>(k) - 1,
                       static_cast<std::int64_t>(k)))
        << k;
  }
  EXPECT_EQ(MuLimit(q, db), 1);
}

TEST(MuKTest, CompleteDatabaseIsDeterministic) {
  Database db = Db("R(1) = { (a) }");
  EXPECT_EQ(MuK(Q(":= R(a)"), db, 3), Rational(1));
  EXPECT_EQ(MuK(Q(":= R(b)"), db, 3), Rational(0));
  EXPECT_EQ(MuLimit(Q(":= R(a)"), db), 1);
}

// Theorem 1 property sweep: µ via the partition polynomial (straight from
// the definition of the measure) is 0/1 and agrees with naive evaluation.
class ZeroOneLaw : public ::testing::TestWithParam<int> {};

TEST_P(ZeroOneLaw, MuViaPolynomialMatchesNaive) {
  RandomDatabaseOptions db_options;
  db_options.relations = {{"R", 2, 4}, {"S", 1, 3}};
  db_options.constant_pool = 3;
  db_options.null_pool = 3;
  db_options.null_probability = 0.45;
  db_options.seed = static_cast<std::uint64_t>(GetParam()) + 100;
  Database db = GenerateRandomDatabase(db_options);

  RandomQueryOptions q_options;
  q_options.relations = {{"R", 2}, {"S", 1}};
  q_options.free_variables = 1;
  q_options.existential_variables = 1;
  q_options.clauses = 2;
  q_options.atoms_per_clause = 2;
  q_options.seed = static_cast<std::uint64_t>(GetParam()) + 200;
  Query fo = GenerateRandomFo(q_options, 0.35);

  for (Value v : db.ActiveDomain()) {
    Tuple candidate{v};
    Rational mu = MuViaPolynomial(fo, db, candidate);
    EXPECT_TRUE(mu == Rational(0) || mu == Rational(1))
        << "0-1 law violated: " << mu.ToString();
    EXPECT_EQ(mu == Rational(1), AlmostCertainlyTrue(fo, db, candidate))
        << fo.ToString() << " on " << candidate.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZeroOneLaw, ::testing::Range(0, 15));

// Finite-k agreement: the closed-form support polynomial evaluates to the
// brute-force count for several k.
class PolynomialAgreement : public ::testing::TestWithParam<int> {};

TEST_P(PolynomialAgreement, PolynomialMatchesEnumeration) {
  RandomDatabaseOptions db_options;
  db_options.relations = {{"R", 2, 3}, {"S", 1, 2}};
  db_options.constant_pool = 2;
  db_options.null_pool = 3;
  db_options.null_probability = 0.5;
  db_options.seed = static_cast<std::uint64_t>(GetParam()) + 400;
  Database db = GenerateRandomDatabase(db_options);

  RandomQueryOptions q_options;
  q_options.relations = {{"R", 2}, {"S", 1}};
  q_options.free_variables = 0;
  q_options.existential_variables = 2;
  q_options.clauses = 2;
  q_options.atoms_per_clause = 2;
  q_options.seed = static_cast<std::uint64_t>(GetParam()) + 500;
  Query fo = GenerateRandomFo(q_options, 0.4);

  SupportPolynomial poly = ComputeSupportPolynomial(fo, db, Tuple{});
  SupportInstance instance = MakeSupportInstance(fo, db, Tuple{});
  for (std::size_t k = poly.valid_from; k < poly.valid_from + 3; ++k) {
    if (k == 0) continue;
    SupportCount count = CountSupport(instance, db, k);
    EXPECT_EQ(poly.count.Evaluate(BigInt(static_cast<std::int64_t>(k))),
              Rational(count.support))
        << "k=" << k << " query " << fo.ToString() << "\n"
        << db.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolynomialAgreement, ::testing::Range(0, 15));

TEST(SupportPolynomialTest, ComplementsSumToTotal) {
  // P_Q + P_{¬Q} = k^m for any query: every valuation witnesses exactly one.
  Database db = Db("R(2) = { (a, _z1), (_z2, b), (_z3, _z1) }");
  Query q = Q(":= exists x . R(x, x)");
  Query not_q(":not", {}, Formula::Not(q.formula()), {});
  Polynomial sum = ComputeSupportPolynomial(q, db, Tuple{}).count +
                   ComputeSupportPolynomial(not_q, db, Tuple{}).count;
  EXPECT_EQ(sum, TotalCountPolynomial(db));
}

TEST(SupportPolynomialTest, CertainQueryHasFullSupport) {
  Database db = Db("R(1) = { (_c1) }");
  Query q = Q(":= exists x . R(x)");
  EXPECT_EQ(ComputeSupportPolynomial(q, db, Tuple{}).count,
            TotalCountPolynomial(db));
}

// Theorem 2: the alternative measure m^k has the same limit as µ^k, though
// the finite-k values differ on databases where valuations collapse.
TEST(AlternativeMeasureTest, CollapsibleNulls) {
  // D: R = {(1,⊥), (1,⊥')} — v(D) has 1 or 2 tuples; swapping the nulls
  // fixes v(D), so m^k ≠ µ^k at finite k for asymmetric queries.
  Database db = Db("R(2) = { (1, _t1), (1, _t2) }");
  Query q = Q(":= exists x, y . R(x, y) & y != 2");
  // Both tend to 1 (naive evaluation is true).
  EXPECT_EQ(MuLimit(q, db), 1);
  Rational mu = MuK(q, db, 8);
  Rational m = MK(q, db, 8);
  EXPECT_GT(mu, Rational(3, 4));
  EXPECT_GT(m, Rational(3, 4));
  EXPECT_LT(mu, Rational(1));
  EXPECT_LT(m, Rational(1));
}

TEST(AlternativeMeasureTest, MkDiffersFromMuKButConverges) {
  // Q true iff the two nulls are equal: µ^k = 1/k, while m^k counts
  // databases: the singleton v(D)s (k of them) among all v(D)s
  // (k + k(k-1)/2): m^k = k/(k + k(k-1)/2) = 2/(k+1). Both → 0.
  Database db = Db("R(2) = { (1, _w1), (1, _w2) }");
  Query q = Q(":= exists x, y . R(x, y) & (forall z, u . R(z, u) -> u = y)");
  for (std::size_t k : {2u, 4u, 8u}) {
    std::int64_t ki = static_cast<std::int64_t>(k);
    EXPECT_EQ(MuK(q, db, k), Rational(1, ki)) << k;
    EXPECT_EQ(MK(q, db, k), Rational(2, ki + 1)) << k;
  }
  EXPECT_EQ(MuLimit(q, db), 0);
}

// The proof device of Theorem 1: bijective valuations dominate.
TEST(BijectiveTest, ShareOfBijectiveValuationsApproachesOne) {
  Database db = Db("R(2) = { (a, _b1), (_b2, c) }");
  Query q = Q(":= exists x . R(a, x)");
  SupportInstance instance = MakeSupportInstance(q, db, Tuple{});
  Rational previous(0);
  for (std::size_t k : {4u, 8u, 32u}) {
    BijectiveSupportCount count = CountBijectiveSupport(instance, db, k);
    Rational share(count.bijective, count.total);
    EXPECT_GT(share, previous) << k;
    previous = share;
    // Bijective valuations all witness this query (it is naively true).
    EXPECT_EQ(count.support, count.bijective);
  }
  EXPECT_GT(previous, Rational(3, 4));
}

TEST(CertainAnswersTest, IntroExampleEmptyCertain) {
  IntroExample example = PaperIntroExample();
  EXPECT_TRUE(CertainAnswers(example.query, example.db).empty());
  std::vector<Tuple> naive = AlmostCertainAnswers(example.query, example.db);
  EXPECT_EQ(naive.size(), 2u);
}

TEST(CertainAnswersTest, CertainWithNullsReturnsRelation) {
  // The paper's motivation for certain answers with nulls: if Q returns R,
  // then (Q,D) = R including null tuples.
  Database db = Db("R(2) = { (a, _r1), (b, b) }");
  Query q = Q("Q(x, y) := R(x, y)");
  std::vector<Tuple> certain = CertainAnswers(q, db);
  EXPECT_EQ(certain.size(), 2u);
  EXPECT_TRUE(IsCertainAnswer(q, db, Tuple{Value::Constant("a"),
                                           Value::Null("r1")}));
}

// Corollary 1 as a property: certain ⊆ naive on random FO queries.
class CertainSubsetNaive : public ::testing::TestWithParam<int> {};

TEST_P(CertainSubsetNaive, Holds) {
  RandomDatabaseOptions db_options;
  db_options.relations = {{"R", 2, 4}, {"S", 1, 3}};
  db_options.constant_pool = 3;
  db_options.null_pool = 2;
  db_options.null_probability = 0.4;
  db_options.seed = static_cast<std::uint64_t>(GetParam()) + 700;
  Database db = GenerateRandomDatabase(db_options);

  RandomQueryOptions q_options;
  q_options.relations = {{"R", 2}, {"S", 1}};
  q_options.free_variables = 1;
  q_options.existential_variables = 1;
  q_options.clauses = 2;
  q_options.atoms_per_clause = 2;
  q_options.seed = static_cast<std::uint64_t>(GetParam()) + 800;
  Query fo = GenerateRandomFo(q_options, 0.3);

  std::vector<Tuple> naive = NaiveEvaluate(fo, db);
  std::sort(naive.begin(), naive.end());
  for (const Tuple& certain : CertainAnswers(fo, db)) {
    EXPECT_TRUE(std::binary_search(naive.begin(), naive.end(), certain))
        << certain.ToString() << " certain but not naive for "
        << fo.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertainSubsetNaive, ::testing::Range(0, 15));

// Corollary 3: for Pos∀G queries certain answers equal naive answers.
class PosForallGEquality : public ::testing::TestWithParam<int> {};

TEST_P(PosForallGEquality, NaiveEqualsCertain) {
  RandomDatabaseOptions db_options;
  db_options.relations = {{"R", 2, 4}, {"S", 1, 3}};
  db_options.constant_pool = 3;
  db_options.null_pool = 2;
  db_options.null_probability = 0.4;
  db_options.seed = static_cast<std::uint64_t>(GetParam()) + 900;
  Database db = GenerateRandomDatabase(db_options);

  // Random positive UCQs are Pos∀G.
  RandomQueryOptions q_options;
  q_options.relations = {{"R", 2}, {"S", 1}};
  q_options.free_variables = 1;
  q_options.existential_variables = 2;
  q_options.clauses = 2;
  q_options.atoms_per_clause = 2;
  q_options.seed = static_cast<std::uint64_t>(GetParam()) + 950;
  Query ucq = GenerateRandomUcq(q_options);
  ASSERT_TRUE(IsPosForallGuarded(*ucq.formula()));

  std::vector<Tuple> naive = NaiveEvaluate(ucq, db);
  std::vector<Tuple> certain = CertainAnswers(ucq, db);
  std::sort(naive.begin(), naive.end());
  std::sort(certain.begin(), certain.end());
  EXPECT_EQ(naive, certain) << ucq.ToString() << "\n" << db.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PosForallGEquality, ::testing::Range(0, 15));

TEST(PossibleAnswersTest, SupersetOfNaive) {
  IntroExample example = PaperIntroExample();
  std::vector<Tuple> possible =
      PossibleAnswers(example.query, example.db);
  std::vector<Tuple> naive = NaiveEvaluate(example.query, example.db);
  std::sort(possible.begin(), possible.end());
  for (const Tuple& t : naive) {
    EXPECT_TRUE(std::binary_search(possible.begin(), possible.end(), t));
  }
  // And possibility is non-trivial: some adom tuple is not possible.
  EXPECT_LT(possible.size(),
            AllTuplesOverAdom(example.db, 2).size());
}

// A candidate's constants belong to A: with D = {R(⊥1)}, v(⊥1) = c9
// witnesses (c9) for R(x) and falsifies it for !R(x), and a range without
// c9 reaches neither. In both plan modes (orbit walk and odometer).
TEST(PossibleAnswersTest, CandidateConstantOutsideDIsInTheRange) {
  Database db = Db("R(1) = { (_1) }");
  const Tuple c9{Value::Constant("c9")};
  for (plan::PlanMode mode :
       {plan::PlanMode::kCompiled, plan::PlanMode::kInterpret}) {
    PlanModeGuard guard(mode);
    EXPECT_TRUE(IsPossibleAnswer(Q("Q(x) := R(x)"), db, c9));
    EXPECT_FALSE(IsCertainAnswer(Q("Q(x) := !R(x)"), db, c9));
  }
}

}  // namespace
}  // namespace zeroone

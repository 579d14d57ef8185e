#include "core/ucq_compare.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/comparison.h"
#include "core/measure.h"
#include "data/io.h"
#include "gen/random_db.h"
#include "gen/random_query.h"
#include "obs/metrics.h"
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

TEST(UcqCompareTest, Section51Example) {
  // R = {(1,⊥),(⊥',2)}, Q returns R: Sep((1,2),(1,1)) holds — the paper's
  // witness is v(⊥) = 2, v(⊥') = 1, where (1,2) ∈ v(R) but (1,1) ∉ v(R).
  Database db = Db("R(2) = { (1, _u51), (_u51b, 2) }");
  Query q = Q("Q(x, y) := R(x, y)");
  Tuple a{Value::Constant("1"), Value::Constant("2")};
  Tuple b{Value::Constant("1"), Value::Constant("1")};
  StatusOr<bool> sep = UcqSeparates(q, db, a, b);
  ASSERT_TRUE(sep.ok()) << sep.status().message();
  EXPECT_TRUE(*sep);
  // And the generic exponential algorithm agrees.
  EXPECT_TRUE(Separates(q, db, a, b));
}

TEST(UcqCompareTest, RejectsNonUcq) {
  Database db = Db("R(2) = { (1, 2) }");
  Query q = Q("Q(x, y) := R(x, y) & !R(y, x)");
  EXPECT_FALSE(UcqSeparates(q, db, Tuple{Value::Int(1), Value::Int(2)},
                            Tuple{Value::Int(2), Value::Int(1)})
                   .ok());
}

TEST(UcqCompareTest, CertainTupleNeverSeparatedFrom) {
  Database db = Db("R(2) = { (a, b), (a, _uc1) }");
  Query q = Q("Q(x, y) := R(x, y)");
  Tuple certain{Value::Constant("a"), Value::Constant("b")};
  // (a,⊥uc1) is a certain answer with nulls too (v((a,⊥)) ∈ v(R) for all
  // v), so neither separates from the other.
  Tuple partial{Value::Constant("a"), Value::Null("uc1")};
  StatusOr<bool> sep = UcqSeparates(q, db, partial, certain);
  ASSERT_TRUE(sep.ok());
  EXPECT_FALSE(*sep);
  StatusOr<bool> sep_back = UcqSeparates(q, db, certain, partial);
  ASSERT_TRUE(sep_back.ok());
  EXPECT_FALSE(*sep_back);
  // A tuple outside the relation is separated from by the certain answer:
  // v(⊥uc1) ≠ q witnesses (a,b) but not (a,q).
  Tuple outside{Value::Constant("a"), Value::Constant("q")};
  StatusOr<bool> sep2 = UcqSeparates(q, db, certain, outside);
  ASSERT_TRUE(sep2.ok());
  EXPECT_TRUE(*sep2);
  // And never the other way.
  StatusOr<bool> sep3 = UcqSeparates(q, db, outside, certain);
  ASSERT_TRUE(sep3.ok());
  EXPECT_FALSE(*sep3);
}

TEST(UcqCompareTest, BestAnswersOnSimpleInstance) {
  Database db = Db("R(2) = { (a, b), (a, _ub1) }");
  Query q = Q("Q(x, y) := R(x, y)");
  StatusOr<std::vector<Tuple>> best = UcqBestAnswers(q, db);
  ASSERT_TRUE(best.ok());
  std::vector<Tuple> generic = BestAnswers(q, db);
  std::vector<Tuple> fast = *best;
  std::sort(fast.begin(), fast.end());
  std::sort(generic.begin(), generic.end());
  EXPECT_EQ(fast, generic);
}

// The core property sweep: the polynomial-time Theorem 8 algorithm agrees
// with the generic bounded-range search on random UCQ instances, across all
// pairs of candidate tuples.
class UcqSepAgreement : public ::testing::TestWithParam<int> {};

TEST_P(UcqSepAgreement, MatchesGenericSeparates) {
  RandomDatabaseOptions db_options;
  db_options.relations = {{"R", 2, 4}, {"S", 1, 3}};
  db_options.constant_pool = 3;
  db_options.null_pool = 2;
  db_options.null_probability = 0.45;
  db_options.seed = static_cast<std::uint64_t>(GetParam()) + 4000;
  Database db = GenerateRandomDatabase(db_options);

  RandomQueryOptions q_options;
  q_options.relations = {{"R", 2}, {"S", 1}};
  q_options.free_variables = 1;
  q_options.existential_variables = 1;
  q_options.clauses = 2;
  q_options.atoms_per_clause = 2;
  q_options.constant_pool = 2;
  q_options.seed = static_cast<std::uint64_t>(GetParam()) + 4100;
  Query ucq = GenerateRandomUcq(q_options);

  std::vector<Value> adom = db.ActiveDomain();
  for (Value va : adom) {
    for (Value vb : adom) {
      Tuple a{va};
      Tuple b{vb};
      StatusOr<bool> fast = UcqSeparates(ucq, db, a, b);
      ASSERT_TRUE(fast.ok()) << fast.status().message();
      bool generic = Separates(ucq, db, a, b);
      EXPECT_EQ(*fast, generic)
          << "Sep(" << a.ToString() << ", " << b.ToString() << ") for "
          << ucq.ToString() << "\n"
          << db.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UcqSepAgreement, ::testing::Range(0, 25));

// Best answers agree between the two algorithms.
class UcqBestAgreement : public ::testing::TestWithParam<int> {};

TEST_P(UcqBestAgreement, MatchesGenericBest) {
  RandomDatabaseOptions db_options;
  db_options.relations = {{"R", 2, 3}, {"S", 1, 2}};
  db_options.constant_pool = 2;
  db_options.null_pool = 2;
  db_options.null_probability = 0.5;
  db_options.seed = static_cast<std::uint64_t>(GetParam()) + 4200;
  Database db = GenerateRandomDatabase(db_options);

  RandomQueryOptions q_options;
  q_options.relations = {{"R", 2}, {"S", 1}};
  q_options.free_variables = 1;
  q_options.existential_variables = 1;
  q_options.clauses = 2;
  q_options.atoms_per_clause = 2;
  q_options.seed = static_cast<std::uint64_t>(GetParam()) + 4300;
  Query ucq = GenerateRandomUcq(q_options);

  StatusOr<std::vector<Tuple>> fast = UcqBestAnswers(ucq, db);
  ASSERT_TRUE(fast.ok());
  std::vector<Tuple> generic = BestAnswers(ucq, db);
  std::vector<Tuple> fast_sorted = *fast;
  std::sort(fast_sorted.begin(), fast_sorted.end());
  std::sort(generic.begin(), generic.end());
  EXPECT_EQ(fast_sorted, generic)
      << ucq.ToString() << "\n" << db.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, UcqBestAgreement, ::testing::Range(0, 20));

#if ZEROONE_OBS_ENABLED
// Fresh constants stay interned for the life of the process, so one best
// computation mints one pool — |Null(D)| plus the most nulls in any
// candidate — not one per candidate pair.
TEST(UcqCompareTest, BestAnswersMintsOneFreshPoolPerCall) {
  Database db = Db("R(2) = { (a, _f1), (_f1, b), (c, _f2), (_f3, a) } "
                   "S(1) = { (b), (_f2) }");
  Query q = Q("Q(x) := exists y . R(x, y) & S(y)");
  std::size_t max_candidate_nulls = 0;
  std::vector<Tuple> candidates = AllTuplesOverAdom(db, q.arity());
  for (const Tuple& t : candidates) {
    max_candidate_nulls = std::max(max_candidate_nulls, t.Nulls().size());
  }
  ASSERT_GT(candidates.size(), 4u);
  obs::Counter& fresh =
      obs::Registry::Global().GetCounter("data.fresh_constants");
  const std::uint64_t before = fresh.value();
  StatusOr<std::vector<Tuple>> best = UcqBestAnswers(q, db);
  ASSERT_TRUE(best.ok()) << best.status().message();
  EXPECT_LE(fresh.value() - before, db.Nulls().size() + max_candidate_nulls);
  EXPECT_GT(fresh.value(), before);
}
#endif

TEST(UcqCompareTest, BestMuSubsetOfBest) {
  Database db = Db("R(2) = { (1, _m1), (2, _m2) } S(2) = { (1, _m2) }");
  Query q = Q("Q(x, y) := R(x, y) | S(x, y)");
  StatusOr<std::vector<Tuple>> best = UcqBestAnswers(q, db);
  StatusOr<std::vector<Tuple>> best_mu = UcqBestMuAnswers(q, db);
  ASSERT_TRUE(best.ok());
  ASSERT_TRUE(best_mu.ok());
  std::vector<Tuple> best_sorted = *best;
  std::sort(best_sorted.begin(), best_sorted.end());
  for (const Tuple& t : *best_mu) {
    EXPECT_TRUE(
        std::binary_search(best_sorted.begin(), best_sorted.end(), t));
  }
}

}  // namespace
}  // namespace zeroone

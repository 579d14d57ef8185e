#include "core/generic_instance.h"

#include <gtest/gtest.h>

#include "core/support.h"
#include "gen/random_db.h"
#include "gen/random_query.h"

namespace zeroone {
namespace {

// The parallel counter must be bit-identical to the sequential one: the
// valuation space is partitioned, never approximated.
class ParallelCountAgreement : public ::testing::TestWithParam<int> {};

TEST_P(ParallelCountAgreement, MatchesSequential) {
  RandomDatabaseOptions db_options;
  db_options.relations = {{"R", 2, 4}, {"S", 1, 3}};
  db_options.constant_pool = 3;
  db_options.null_pool = 3;
  db_options.null_probability = 0.5;
  db_options.seed = static_cast<std::uint64_t>(GetParam()) + 140000;
  Database db = GenerateRandomDatabase(db_options);

  RandomQueryOptions q_options;
  q_options.relations = {{"R", 2}, {"S", 1}};
  q_options.free_variables = 0;
  q_options.existential_variables = 2;
  q_options.clauses = 2;
  q_options.atoms_per_clause = 2;
  q_options.seed = static_cast<std::uint64_t>(GetParam()) + 140100;
  Query fo = GenerateRandomFo(q_options, 0.35);

  GenericInstance instance =
      ToGenericInstance(MakeSupportInstance(fo, db, Tuple{}), db);
  for (std::size_t k : {5u, 8u}) {
    GenericSupportCount sequential = CountGenericSupport(instance, db, k);
    for (std::size_t threads : {2u, 4u, 16u}) {
      GenericSupportCount parallel =
          CountGenericSupportParallel(instance, db, k, threads);
      EXPECT_EQ(parallel.support, sequential.support)
          << "k=" << k << " threads=" << threads;
      EXPECT_EQ(parallel.total, sequential.total)
          << "k=" << k << " threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelCountAgreement,
                         ::testing::Range(0, 10));

TEST(ParallelCountTest, MuKParallelWrapper) {
  RandomDatabaseOptions options;
  options.relations = {{"R", 2, 4}};
  options.constant_pool = 2;
  options.null_pool = 3;
  options.null_probability = 0.5;
  options.seed = 12345;
  Database db = GenerateRandomDatabase(options);
  RandomQueryOptions q_options;
  q_options.relations = {{"R", 2}};
  q_options.free_variables = 0;
  q_options.existential_variables = 2;
  q_options.clauses = 2;
  q_options.atoms_per_clause = 2;
  q_options.seed = 12346;
  Query q = GenerateRandomFo(q_options, 0.3);
  EXPECT_EQ(MuKParallel(q, db, Tuple{}, 7, 4), MuK(q, db, 7));
}

TEST(ParallelCountTest, DegenerateCases) {
  // No nulls: single valuation, sequential fallback.
  RandomDatabaseOptions options;
  options.relations = {{"R", 1, 3}};
  options.null_probability = 0.0;
  options.seed = 3;
  Database db = GenerateRandomDatabase(options);
  RandomQueryOptions q_options;
  q_options.relations = {{"R", 1}};
  q_options.free_variables = 0;
  q_options.existential_variables = 1;
  q_options.clauses = 1;
  q_options.atoms_per_clause = 1;
  q_options.seed = 4;
  Query q = GenerateRandomUcq(q_options);
  GenericInstance instance =
      ToGenericInstance(MakeSupportInstance(q, db, Tuple{}), db);
  GenericSupportCount count =
      CountGenericSupportParallel(instance, db, 4, 8);
  EXPECT_EQ(count.total, BigInt(1));
}

}  // namespace
}  // namespace zeroone

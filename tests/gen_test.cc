#include <gtest/gtest.h>

#include "gen/random_db.h"
#include "gen/random_query.h"
#include "gen/scenarios.h"
#include "query/eval.h"
#include "query/fragments.h"

namespace zeroone {
namespace {

TEST(RandomDbTest, DeterministicInSeed) {
  RandomDatabaseOptions options;
  options.relations = {{"R", 2, 5}, {"S", 1, 3}};
  options.seed = 99;
  Database a = GenerateRandomDatabase(options);
  Database b = GenerateRandomDatabase(options);
  EXPECT_EQ(a, b);
  options.seed = 100;
  EXPECT_NE(GenerateRandomDatabase(options), a);
}

TEST(RandomDbTest, RespectsShape) {
  RandomDatabaseOptions options;
  options.relations = {{"R", 3, 6}};
  options.constant_pool = 2;
  options.null_pool = 2;
  options.null_probability = 0.5;
  options.seed = 4;
  Database db = GenerateRandomDatabase(options);
  EXPECT_EQ(db.relation("R").arity(), 3u);
  // Set semantics may deduplicate below the requested count, never above.
  EXPECT_LE(db.relation("R").size(), 6u);
  EXPECT_LE(db.Constants().size(), 2u);
  EXPECT_LE(db.Nulls().size(), 2u);
}

TEST(RandomDbTest, ZeroNullProbabilityYieldsComplete) {
  RandomDatabaseOptions options;
  options.relations = {{"R", 2, 8}};
  options.null_probability = 0.0;
  options.seed = 5;
  EXPECT_TRUE(GenerateRandomDatabase(options).IsComplete());
}

TEST(RandomDbTest, DistinctSeedsUseDistinctNulls) {
  RandomDatabaseOptions options;
  options.relations = {{"R", 1, 4}};
  options.constant_pool = 0;
  options.null_pool = 2;
  options.null_probability = 1.0;
  options.seed = 6;
  Database a = GenerateRandomDatabase(options);
  options.seed = 7;
  Database b = GenerateRandomDatabase(options);
  for (Value null_a : a.Nulls()) {
    for (Value null_b : b.Nulls()) {
      EXPECT_NE(null_a, null_b);
    }
  }
}

TEST(RandomQueryTest, DeterministicAndWellFormed) {
  RandomQueryOptions options;
  options.relations = {{"R", 2}, {"S", 1}};
  options.free_variables = 2;
  options.seed = 11;
  Query a = GenerateRandomUcq(options);
  Query b = GenerateRandomUcq(options);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.arity(), 2u);
  EXPECT_TRUE(IsUnionOfConjunctive(*a.formula()));
  // Range restriction: every free variable occurs free in the body.
  std::vector<std::size_t> free = a.formula()->FreeVariables();
  for (std::size_t v : a.free_variables()) {
    EXPECT_TRUE(std::find(free.begin(), free.end(), v) != free.end());
  }
}

TEST(RandomQueryTest, FoGeneratorUsesNegation) {
  RandomQueryOptions options;
  options.relations = {{"R", 2}};
  options.clauses = 3;
  options.atoms_per_clause = 3;
  options.seed = 12;
  Query fo = GenerateRandomFo(options, 1.0);  // Negate whenever possible.
  EXPECT_FALSE(IsUnionOfConjunctive(*fo.formula()));
}

// Walks the formula and records whether it holds a guarded ∀ (a ∀ over an
// implication) and an unguarded one.
void FindForalls(const Formula& f, bool* guarded, bool* unguarded) {
  if (f.kind() == Formula::Kind::kForall) {
    const Formula* body = &f;
    while (body->kind() == Formula::Kind::kForall) {
      body = body->children()[0].get();
    }
    (body->kind() == Formula::Kind::kImplies ? *guarded : *unguarded) = true;
  }
  for (const FormulaPtr& child : f.children()) {
    FindForalls(*child, guarded, unguarded);
  }
}

TEST(RandomQueryTest, PosForallGuardedEmitsTopLevelAndGuardedForall) {
  RandomQueryOptions options;
  options.relations = {{"R", 2}, {"S", 2}, {"U", 1}};
  bool top_level = false, guarded = false, unguarded = false;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    options.seed = seed;
    options.free_variables = seed % 2;
    Query q = GenerateRandomPosForallGuarded(options, 0.5);
    EXPECT_EQ(q.ToString(), GenerateRandomPosForallGuarded(options, 0.5)
                                .ToString());
    EXPECT_EQ(q.arity(), seed % 2);
    EXPECT_TRUE(IsPosForallGuarded(*q.formula())) << q.ToString();
    top_level = top_level || q.formula()->kind() == Formula::Kind::kForall;
    FindForalls(*q.formula(), &guarded, &unguarded);
  }
  EXPECT_TRUE(top_level);
  EXPECT_TRUE(guarded);
  EXPECT_TRUE(unguarded);
  // Without ∀ it is a plain UCQ.
  options.seed = 3;
  EXPECT_TRUE(IsUnionOfConjunctive(
      *GenerateRandomPosForallGuarded(options, 0.0).formula()));
}

TEST(ScenariosTest, ScaledIntroShape) {
  IntroExample example = ScaledIntroExample(10, 3, 0.5, 21);
  EXPECT_EQ(example.db.relation("R1").size(), 30u);
  EXPECT_FALSE(example.db.Nulls().empty());
  EXPECT_EQ(example.query.arity(), 2u);
  // Determinism.
  IntroExample again = ScaledIntroExample(10, 3, 0.5, 21);
  EXPECT_EQ(example.db, again.db);
}

TEST(ScenariosTest, PaperExamplesAreWellFormed) {
  EXPECT_EQ(PaperIntroExample().db.Nulls().size(), 3u);
  EXPECT_EQ(PaperConditionalExample().db.Nulls().size(), 1u);
  EXPECT_EQ(PaperBestAnswerExample().db.Nulls().size(), 3u);
  EXPECT_EQ(Proposition4Example(2, 5).db.relation("U").size(), 5u);
  EXPECT_TRUE(Proposition2Example().db.relation("U").empty());
}

}  // namespace
}  // namespace zeroone

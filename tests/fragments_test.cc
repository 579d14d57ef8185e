#include "query/fragments.h"

#include <gtest/gtest.h>

#include <string>

#include "query/parser.h"

namespace zeroone {
namespace {

FormulaPtr F(const char* text) {
  StatusOr<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().message();
  return q->formula();
}

TEST(FragmentsTest, ConjunctiveClassification) {
  EXPECT_TRUE(IsConjunctive(*F("Q(x) := exists y . R(x, y) & S(y)")));
  EXPECT_TRUE(IsConjunctive(*F("Q(x, y) := R(x, y) & x = y")));
  EXPECT_TRUE(IsConjunctive(*F(":= true")));
  EXPECT_FALSE(IsConjunctive(*F("Q(x) := R(x) | S(x)")));
  EXPECT_FALSE(IsConjunctive(*F("Q(x) := !R(x)")));
  EXPECT_FALSE(IsConjunctive(*F(":= forall x . R(x)")));
}

TEST(FragmentsTest, UcqClassification) {
  EXPECT_TRUE(IsUnionOfConjunctive(
      *F("Q(x) := (exists y . R(x, y)) | S(x)")));
  EXPECT_TRUE(IsUnionOfConjunctive(*F(":= false")));
  EXPECT_FALSE(IsUnionOfConjunctive(*F("Q(x) := R(x) & !S(x)")));
  EXPECT_FALSE(IsUnionOfConjunctive(*F(":= forall x . R(x)")));
  EXPECT_FALSE(IsUnionOfConjunctive(*F(":= R() -> S()")));
}

TEST(FragmentsTest, PosForallGuardedClassification) {
  // Positive formulas with ∃ and plain ∀ are in the fragment.
  EXPECT_TRUE(IsPosForallGuarded(*F(":= exists x . R(x) & S(x)")));
  EXPECT_TRUE(IsPosForallGuarded(*F(":= forall x . R(x) | S(x)")));
  // Guarded implication: ∀x (α(x) → φ).
  EXPECT_TRUE(IsPosForallGuarded(*F(":= forall x . U(x) -> R(x)")));
  EXPECT_TRUE(IsPosForallGuarded(
      *F(":= forall x, y . E(x, y) -> (exists z . E(y, z))")));
  // Negation breaks it.
  EXPECT_FALSE(IsPosForallGuarded(*F(":= forall x . U(x) -> !R(x)")));
  EXPECT_FALSE(IsPosForallGuarded(*F("Q(x) := R(x) & !S(x)")));
  // A bare implication (no ∀ guard) is not allowed.
  EXPECT_FALSE(IsPosForallGuarded(*F(":= R() -> S()")));
  // Guard must be an atom covering exactly the quantified variables.
  EXPECT_FALSE(IsPosForallGuarded(
      *F(":= forall x, y . U(x) -> R(x, y)")));  // y not in the guard.
  EXPECT_FALSE(IsPosForallGuarded(
      *F(":= forall x . E(x, x) -> R(x)")));  // Repeated variable in guard.
  // Guarded implication whose conclusion is itself guarded.
  EXPECT_TRUE(IsPosForallGuarded(
      *F(":= forall x . U(x) -> (forall y . E(y) -> R(x, y))")));
  // A guard may not mention a variable bound further out, or a constant:
  // on D = {U(⊥), E(c, d)} the first is naïvely true but ⊥ ↦ c falsifies
  // it, so Corollary 3 does not cover it.
  EXPECT_FALSE(IsPosForallGuarded(
      *F(":= forall x . U(x) -> (forall y . E(x, y) -> R(y))")));
  EXPECT_FALSE(IsPosForallGuarded(
      *F("Q(x) := U(x) & forall y . R(y, x) -> S(y, y)")));
  EXPECT_FALSE(IsPosForallGuarded(*F(":= forall y . E(c, y) -> R(y)")));
}

TEST(FragmentsTest, NormalizeSimpleCq) {
  StatusOr<UcqNormalForm> ucq =
      NormalizeUcq(*F("Q(x) := exists y . R(x, y) & S(y)"));
  ASSERT_TRUE(ucq.ok()) << ucq.status().message();
  ASSERT_EQ(ucq->disjuncts.size(), 1u);
  EXPECT_EQ(ucq->disjuncts[0].atoms.size(), 2u);
  EXPECT_TRUE(ucq->disjuncts[0].equalities.empty());
}

TEST(FragmentsTest, NormalizeDistributesAndOverOr) {
  // (A | B) & (C | D) → 4 disjuncts.
  StatusOr<UcqNormalForm> ucq =
      NormalizeUcq(*F(":= (A() | B()) & (C() | D())"));
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq->disjuncts.size(), 4u);
  for (const ConjunctiveClause& clause : ucq->disjuncts) {
    EXPECT_EQ(clause.atoms.size(), 2u);
  }
}

TEST(FragmentsTest, NormalizeTrueFalse) {
  StatusOr<UcqNormalForm> top = NormalizeUcq(*F(":= true"));
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->disjuncts.size(), 1u);
  EXPECT_TRUE(top->disjuncts[0].atoms.empty());
  StatusOr<UcqNormalForm> bottom = NormalizeUcq(*F(":= false"));
  ASSERT_TRUE(bottom.ok());
  EXPECT_TRUE(bottom->disjuncts.empty());
  // false | R() keeps only the R clause.
  StatusOr<UcqNormalForm> mixed = NormalizeUcq(*F(":= false | R()"));
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(mixed->disjuncts.size(), 1u);
}

TEST(FragmentsTest, NormalizeKeepsEqualities) {
  StatusOr<UcqNormalForm> ucq =
      NormalizeUcq(*F("Q(x, y) := R(x, y) & x = y"));
  ASSERT_TRUE(ucq.ok());
  ASSERT_EQ(ucq->disjuncts.size(), 1u);
  EXPECT_EQ(ucq->disjuncts[0].equalities.size(), 1u);
}

TEST(FragmentsTest, NormalizeRejectsNegation) {
  EXPECT_FALSE(NormalizeUcq(*F("Q(x) := R(x) & !S(x)")).ok());
  EXPECT_FALSE(NormalizeUcq(*F(":= forall x . R(x)")).ok());
}

TEST(FragmentsTest, DisjunctCountMatchesNormalizeUcq) {
  for (const char* text :
       {"Q(x) := exists y . R(x, y) & S(y)", ":= (A() | B()) & (C() | D())",
        ":= true", ":= false", ":= false | R()", ":= (A() | B()) & false",
        ":= A() & (B() | (C() & (D() | E() | F())))",
        "Q(x) := exists y . (R(x, y) | S(x)) & (x = y | T(y) | U(y))"}) {
    FormulaPtr formula = F(text);
    StatusOr<UcqNormalForm> dnf = NormalizeUcq(*formula);
    ASSERT_TRUE(dnf.ok()) << text;
    EXPECT_EQ(UcqDisjunctCount(*formula, 100), dnf->disjuncts.size()) << text;
  }
}

TEST(FragmentsTest, DisjunctCountIsCapped) {
  // 2^40 clauses, counted without building any.
  std::string text = ":= A()";
  for (int i = 0; i < 40; ++i) text += " & (B() | C())";
  FormulaPtr formula = F(text.c_str());
  EXPECT_EQ(UcqDisjunctCount(*formula, 64), 64u);
  EXPECT_EQ(UcqDisjunctCount(*F(":= (A() | B()) & (C() | D())"), 3), 3u);
  EXPECT_EQ(UcqDisjunctCount(*F(":= (A() | B()) & false"), 1), 0u);
}

}  // namespace
}  // namespace zeroone

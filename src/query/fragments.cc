#include "query/fragments.h"

#include <algorithm>
#include <set>

namespace zeroone {

namespace {

bool AllChildren(const Formula& f, bool (*predicate)(const Formula&)) {
  return std::all_of(
      f.children().begin(), f.children().end(),
      [&](const FormulaPtr& child) { return predicate(*child); });
}

}  // namespace

bool IsConjunctive(const Formula& formula) {
  switch (formula.kind()) {
    case Formula::Kind::kTrue:
    case Formula::Kind::kAtom:
    case Formula::Kind::kEquals:
      return true;
    case Formula::Kind::kAnd:
    case Formula::Kind::kExists:
      return AllChildren(formula, &IsConjunctive);
    default:
      return false;
  }
}

bool IsUnionOfConjunctive(const Formula& formula) {
  switch (formula.kind()) {
    case Formula::Kind::kTrue:
    case Formula::Kind::kFalse:
    case Formula::Kind::kAtom:
    case Formula::Kind::kEquals:
      return true;
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr:
    case Formula::Kind::kExists:
      return AllChildren(formula, &IsUnionOfConjunctive);
    default:
      return false;
  }
}

namespace {

// Checks the guarded-universal rule: the formula is a chain
// ∀x₁ … ∀x_n (R(x₁, …, x_n) → φ) — the guard's terms are exactly the
// quantified variables, pairwise distinct — and φ ∈ Pos∀G.
bool IsGuardedUniversal(const Formula& formula) {
  std::set<std::size_t> quantified;
  const Formula* current = &formula;
  while (current->kind() == Formula::Kind::kForall) {
    quantified.insert(current->bound_variable());
    current = current->children()[0].get();
  }
  if (current->kind() != Formula::Kind::kImplies) return false;
  const Formula& guard = *current->children()[0];
  if (guard.kind() != Formula::Kind::kAtom) return false;
  // The guard must be an atom over pairwise-distinct variables that are
  // exactly the quantified tuple x̄. A guard may not mention a constant or
  // a variable bound further out: Corollary 3 rests on preservation under
  // onto homomorphisms, where every tuple of v(D) matching the guard is the
  // image of a tuple of D matching it, and that fails once the guard pins
  // a position to an outer value — D = {U(⊥), E(c, d)} satisfies
  // ∀x (U(x) → ∀y (E(x, y) → R(y))) naïvely, but ⊥ ↦ c falsifies it.
  std::set<std::size_t> guard_variables;
  for (const Term& t : guard.terms()) {
    if (!t.is_variable()) return false;
    if (!guard_variables.insert(t.variable_id()).second) return false;
  }
  if (guard_variables != quantified) return false;
  return IsPosForallGuarded(*current->children()[1]);
}

}  // namespace

bool IsPosForallGuarded(const Formula& formula) {
  switch (formula.kind()) {
    case Formula::Kind::kTrue:
    case Formula::Kind::kFalse:
    case Formula::Kind::kAtom:
    case Formula::Kind::kEquals:
      return true;
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr:
    case Formula::Kind::kExists:
      return AllChildren(formula, &IsPosForallGuarded);
    case Formula::Kind::kForall:
      // Either a plain positive universal, or the start of a guarded chain.
      return IsPosForallGuarded(*formula.children()[0]) ||
             IsGuardedUniversal(formula);
    case Formula::Kind::kImplies:
      // Implications are only allowed under a ∀ chain as guards; a bare
      // implication is not in the fragment. (∀-chains are handled above.)
      return false;
    default:
      return false;
  }
}

namespace {

// DNF of a positive-existential formula as clause lists.
StatusOr<std::vector<ConjunctiveClause>> ToDnf(const Formula& f) {
  switch (f.kind()) {
    case Formula::Kind::kTrue:
      return std::vector<ConjunctiveClause>{ConjunctiveClause{}};
    case Formula::Kind::kFalse:
      return std::vector<ConjunctiveClause>{};
    case Formula::Kind::kAtom: {
      ConjunctiveClause clause;
      clause.atoms.push_back(CQAtom{f.relation_name(), f.terms()});
      return std::vector<ConjunctiveClause>{std::move(clause)};
    }
    case Formula::Kind::kEquals: {
      ConjunctiveClause clause;
      clause.equalities.emplace_back(f.left(), f.right());
      return std::vector<ConjunctiveClause>{std::move(clause)};
    }
    case Formula::Kind::kExists:
      // Variable ids are unique; the quantifier can simply be stripped —
      // non-free variables are existential by convention.
      return ToDnf(*f.children()[0]);
    case Formula::Kind::kOr: {
      std::vector<ConjunctiveClause> result;
      for (const FormulaPtr& child : f.children()) {
        StatusOr<std::vector<ConjunctiveClause>> sub = ToDnf(*child);
        if (!sub.ok()) return sub.status();
        for (ConjunctiveClause& clause : sub.value()) {
          result.push_back(std::move(clause));
        }
      }
      return result;
    }
    case Formula::Kind::kAnd: {
      std::vector<ConjunctiveClause> result = {ConjunctiveClause{}};
      for (const FormulaPtr& child : f.children()) {
        StatusOr<std::vector<ConjunctiveClause>> sub = ToDnf(*child);
        if (!sub.ok()) return sub.status();
        std::vector<ConjunctiveClause> next;
        next.reserve(result.size() * sub->size());
        for (const ConjunctiveClause& left : result) {
          for (const ConjunctiveClause& right : *sub) {
            ConjunctiveClause merged = left;
            merged.atoms.insert(merged.atoms.end(), right.atoms.begin(),
                                right.atoms.end());
            merged.equalities.insert(merged.equalities.end(),
                                     right.equalities.begin(),
                                     right.equalities.end());
            next.push_back(std::move(merged));
          }
        }
        result = std::move(next);
      }
      return result;
    }
    default:
      return Status::Error(
          "NormalizeUcq: formula is not in the ∃,∧,∨ fragment (found " +
          std::to_string(static_cast<int>(f.kind())) + ")");
  }
}

}  // namespace

std::size_t UcqDisjunctCount(const Formula& formula, std::size_t cap) {
  switch (formula.kind()) {
    case Formula::Kind::kFalse:
      return 0;
    case Formula::Kind::kExists:
      return UcqDisjunctCount(*formula.children()[0], cap);
    case Formula::Kind::kOr: {
      std::size_t count = 0;
      for (const FormulaPtr& child : formula.children()) {
        count = std::min(cap, count + UcqDisjunctCount(*child, cap));
      }
      return count;
    }
    case Formula::Kind::kAnd: {
      std::size_t count = std::min<std::size_t>(cap, 1);
      for (const FormulaPtr& child : formula.children()) {
        std::size_t factor = UcqDisjunctCount(*child, cap);
        // Both factors are at most cap, so the test cannot overflow.
        count = factor != 0 && count > cap / factor ? cap : count * factor;
      }
      return count;
    }
    default:
      // kTrue, atoms and equalities are one clause each.
      return std::min<std::size_t>(cap, 1);
  }
}

StatusOr<UcqNormalForm> NormalizeUcq(const Formula& formula) {
  StatusOr<std::vector<ConjunctiveClause>> dnf = ToDnf(formula);
  if (!dnf.ok()) return dnf.status();
  UcqNormalForm result;
  result.disjuncts = std::move(*dnf);
  return result;
}

}  // namespace zeroone

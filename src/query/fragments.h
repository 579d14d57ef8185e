#ifndef ZEROONE_QUERY_FRAGMENTS_H_
#define ZEROONE_QUERY_FRAGMENTS_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "query/query.h"

namespace zeroone {

// Syntactic query-fragment classification (Section 2 "Query languages" and
// Corollary 3). All fragments are checked on the formula as written; no
// semantic equivalence reasoning is attempted.

// ∃,∧-fragment: atoms, equalities, conjunction, existential quantification
// (select-project-join queries).
bool IsConjunctive(const Formula& formula);

// ∃,∧,∨-fragment: additionally disjunction — unions of conjunctive queries
// (select-project-join-union). kTrue/kFalse are allowed.
bool IsUnionOfConjunctive(const Formula& formula);

// The Pos∀G fragment of Corollary 3 (Compton's positive FO with universal
// guards): atomic formulas, closed under ∧, ∨, ∃, ∀, and the guarded rule
// ∀x̄ (R(x̄) → φ) where the guard's terms are exactly the quantified
// variables x̄, pairwise distinct (no constants, no variables bound further
// out; φ may mention those). Negation is not allowed, and
// implications may appear only as guards. For Pos∀G queries, naïve
// evaluation computes certain answers, so almost-certainly-true and certain
// answers coincide.
bool IsPosForallGuarded(const Formula& formula);

// A relational atom of a conjunctive query in normal form.
struct CQAtom {
  std::string relation;
  std::vector<Term> terms;
};

// One disjunct of a UCQ in normal form: a conjunction of relational atoms
// and equality atoms, with all existential quantifiers stripped (every
// variable that is not free in the enclosing query is existential; variable
// ids are globally unique within a query, so no renaming is needed).
struct ConjunctiveClause {
  std::vector<CQAtom> atoms;
  std::vector<std::pair<Term, Term>> equalities;
};

// A union of conjunctive queries, flattened to disjunctive normal form.
// An empty disjunct list denotes the constant-false query; a disjunct with
// no atoms and no equalities is constant-true.
struct UcqNormalForm {
  std::vector<ConjunctiveClause> disjuncts;
};

// Converts a positive-existential formula to DNF. Fails with an error if
// the formula is not in the ∃,∧,∨-fragment. Distribution of ∧ over ∨ can
// blow up exponentially in the (fixed) query size; data complexity is
// unaffected.
StatusOr<UcqNormalForm> NormalizeUcq(const Formula& formula);

// The number of disjuncts NormalizeUcq would produce for a formula in the
// ∃,∧,∨-fragment (a sum over ∨, a product over ∧), counted without building
// them and capped at `cap`, so a caller can refuse a DNF too large to build
// in time linear in the formula.
std::size_t UcqDisjunctCount(const Formula& formula, std::size_t cap);

}  // namespace zeroone

#endif  // ZEROONE_QUERY_FRAGMENTS_H_

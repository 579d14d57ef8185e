#include "gen/random_query.h"

#include <algorithm>
#include <cassert>
#include <random>
#include <set>

namespace zeroone {

namespace {

// Builds one clause: a conjunction of (possibly negated) atoms over the
// variable ids [0, free + existential), with every free variable forced to
// occur in at least one positive atom.
FormulaPtr BuildClause(const RandomQueryOptions& options,
                       double negation_probability, std::mt19937_64* rng) {
  assert(!options.relations.empty());
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> relation_pick(
      0, options.relations.size() - 1);
  std::size_t variable_count =
      options.free_variables + options.existential_variables;
  std::uniform_int_distribution<std::size_t> variable_pick(
      0, variable_count == 0 ? 0 : variable_count - 1);
  std::uniform_int_distribution<std::size_t> constant_pick(
      0, options.constant_pool == 0 ? 0 : options.constant_pool - 1);

  struct RawAtom {
    std::size_t relation;
    std::vector<Term> terms;
    bool negated;
  };
  std::vector<RawAtom> atoms;
  for (std::size_t i = 0; i < options.atoms_per_clause; ++i) {
    RawAtom atom;
    atom.relation = relation_pick(*rng);
    std::size_t arity = options.relations[atom.relation].arity;
    for (std::size_t p = 0; p < arity; ++p) {
      bool use_constant = options.constant_pool > 0 &&
                          coin(*rng) < options.constant_probability;
      if (use_constant || variable_count == 0) {
        atom.terms.push_back(Term::Val(
            Value::Constant("c" + std::to_string(constant_pick(*rng)))));
      } else {
        atom.terms.push_back(Term::Variable(variable_pick(*rng)));
      }
    }
    atom.negated = coin(*rng) < negation_probability;
    atoms.push_back(std::move(atom));
  }

  // Range restriction: every free variable must occur in a positive atom.
  for (std::size_t v = 0; v < options.free_variables; ++v) {
    bool occurs = false;
    for (const RawAtom& atom : atoms) {
      if (atom.negated) continue;
      for (const Term& t : atom.terms) {
        occurs = occurs || (t.is_variable() && t.variable_id() == v);
      }
    }
    if (occurs) continue;
    // Place v into a random position of a positive atom (creating one if
    // all atoms are negated).
    std::vector<std::size_t> positive;
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      if (!atoms[i].negated && !atoms[i].terms.empty()) positive.push_back(i);
    }
    if (positive.empty()) {
      for (RawAtom& atom : atoms) {
        if (!atom.terms.empty()) {
          atom.negated = false;
          positive.push_back(&atom - atoms.data());
          break;
        }
      }
    }
    if (positive.empty()) continue;  // Only 0-ary atoms; nothing to do.
    std::uniform_int_distribution<std::size_t> atom_pick(0,
                                                         positive.size() - 1);
    RawAtom& host = atoms[positive[atom_pick(*rng)]];
    std::uniform_int_distribution<std::size_t> position_pick(
        0, host.terms.size() - 1);
    host.terms[position_pick(*rng)] = Term::Variable(v);
  }

  std::vector<FormulaPtr> literals;
  for (const RawAtom& atom : atoms) {
    FormulaPtr f = Formula::Atom(options.relations[atom.relation].name,
                                 atom.terms);
    literals.push_back(atom.negated ? Formula::Not(std::move(f))
                                    : std::move(f));
  }
  FormulaPtr body = Formula::And(std::move(literals));
  // Existentially quantify the non-free variables that occur.
  std::vector<std::size_t> existential;
  for (std::size_t v = options.free_variables; v < variable_count; ++v) {
    existential.push_back(v);
  }
  return Formula::Exists(existential, std::move(body));
}

Query BuildQuery(const RandomQueryOptions& options,
                 double negation_probability) {
  std::mt19937_64 rng(options.seed);
  std::vector<FormulaPtr> clauses;
  for (std::size_t i = 0; i < options.clauses; ++i) {
    clauses.push_back(BuildClause(options, negation_probability, &rng));
  }
  FormulaPtr formula = Formula::Or(std::move(clauses));
  std::vector<std::size_t> free_variables;
  std::vector<std::string> names;
  for (std::size_t v = 0; v < options.free_variables; ++v) {
    free_variables.push_back(v);
    names.push_back("x" + std::to_string(v));
  }
  for (std::size_t v = options.free_variables;
       v < options.free_variables + options.existential_variables; ++v) {
    names.push_back("y" + std::to_string(v));
  }
  return Query("Qrand", std::move(free_variables), std::move(formula),
               std::move(names));
}

// A term over the free variables, the given bound variables and the
// constant pool.
Term PickTerm(const RandomQueryOptions& options,
              const std::vector<std::size_t>& bound, std::mt19937_64* rng) {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::size_t choices = options.free_variables + bound.size();
  bool use_constant = options.constant_pool > 0 &&
                      coin(*rng) < options.constant_probability;
  if (choices == 0 || use_constant) {
    std::uniform_int_distribution<std::size_t> constant_pick(
        0, options.constant_pool == 0 ? 0 : options.constant_pool - 1);
    return Term::Val(
        Value::Constant("c" + std::to_string(constant_pick(*rng))));
  }
  std::uniform_int_distribution<std::size_t> pick(0, choices - 1);
  std::size_t i = pick(*rng);
  return Term::Variable(i < options.free_variables
                            ? i
                            : bound[i - options.free_variables]);
}

// An atom of a random relation whose first position holds `anchor` and the
// rest are PickTerm draws.
FormulaPtr AnchoredAtom(const RandomQueryOptions& options, Term anchor,
                        const std::vector<std::size_t>& bound,
                        std::mt19937_64* rng) {
  std::uniform_int_distribution<std::size_t> relation_pick(
      0, options.relations.size() - 1);
  const RandomQueryOptions::RelationSpec& spec =
      options.relations[relation_pick(*rng)];
  std::vector<Term> terms;
  for (std::size_t p = 0; p < spec.arity; ++p) {
    terms.push_back(p == 0 ? anchor : PickTerm(options, bound, rng));
  }
  std::uniform_int_distribution<std::size_t> position_pick(
      0, spec.arity == 0 ? 0 : spec.arity - 1);
  if (spec.arity > 1) std::swap(terms[0], terms[position_pick(*rng)]);
  return Formula::Atom(spec.name, std::move(terms));
}

// ∀z̄ (G(z̄) → φ): the guard's terms are exactly the new bound variables
// z̄ (Pos∀G admits no other guard terms), and φ is an atom over z̄, the
// free variables and constants, or a disjunction of two.
FormulaPtr GuardedForall(const RandomQueryOptions& options,
                         std::size_t* next_variable, std::mt19937_64* rng) {
  std::uniform_int_distribution<std::size_t> relation_pick(
      0, options.relations.size() - 1);
  const RandomQueryOptions::RelationSpec& guard =
      options.relations[relation_pick(*rng)];
  if (guard.arity == 0) return Formula::True();
  std::vector<std::size_t> bound;
  std::vector<Term> guard_terms;
  for (std::size_t p = 0; p < guard.arity; ++p) {
    bound.push_back((*next_variable)++);
    guard_terms.push_back(Term::Variable(bound.back()));
  }
  std::uniform_int_distribution<std::size_t> bound_pick(0, bound.size() - 1);
  FormulaPtr conclusion = AnchoredAtom(
      options, Term::Variable(bound[bound_pick(*rng)]), bound, rng);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  if (coin(*rng) < 0.5) {
    conclusion = Formula::Or(
        conclusion,
        AnchoredAtom(options, PickTerm(options, bound, rng), bound, rng));
  }
  return Formula::Forall(
      bound, Formula::Implies(Formula::Atom(guard.name, std::move(guard_terms)),
                              std::move(conclusion)));
}

// ∀z (A(…z…) ∨ B(…)): a positive universal without a guard. B does not
// mention z, so the universal holds wherever B does.
FormulaPtr PositiveForall(const RandomQueryOptions& options,
                          std::size_t* next_variable, std::mt19937_64* rng) {
  std::vector<std::size_t> bound = {(*next_variable)++};
  FormulaPtr body = Formula::Or(
      AnchoredAtom(options, Term::Variable(bound[0]), bound, rng),
      AnchoredAtom(options, PickTerm(options, {}, rng), {}, rng));
  return Formula::Forall(bound[0], std::move(body));
}

}  // namespace

Query GenerateRandomPosForallGuarded(const RandomQueryOptions& options,
                                     double forall_probability) {
  assert(!options.relations.empty());
  std::mt19937_64 rng(options.seed ^ 0x9e3779b97f4a7c15ULL);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::size_t next_variable =
      options.free_variables + options.existential_variables;
  std::vector<FormulaPtr> clauses;
  for (std::size_t i = 0; i < options.clauses; ++i) {
    std::vector<FormulaPtr> parts = {BuildClause(options, 0.0, &rng)};
    if (coin(rng) < forall_probability) {
      parts.push_back(GuardedForall(options, &next_variable, &rng));
    }
    if (coin(rng) < forall_probability) {
      parts.push_back(PositiveForall(options, &next_variable, &rng));
    }
    clauses.push_back(Formula::And(std::move(parts)));
  }
  FormulaPtr formula = Formula::Or(std::move(clauses));
  if (coin(rng) < forall_probability) {
    std::vector<std::size_t> bound = {next_variable++};
    formula = Formula::Forall(
        bound[0],
        Formula::Or(std::move(formula),
                    AnchoredAtom(options, Term::Variable(bound[0]), bound,
                                 &rng)));
  }
  std::vector<std::size_t> free_variables;
  std::vector<std::string> names;
  for (std::size_t v = 0; v < next_variable; ++v) {
    if (v < options.free_variables) free_variables.push_back(v);
    names.push_back((v < options.free_variables ? "x" : "y") +
                    std::to_string(v));
  }
  return Query("Qpfg", std::move(free_variables), std::move(formula),
               std::move(names));
}

Query GenerateRandomUcq(const RandomQueryOptions& options) {
  return BuildQuery(options, 0.0);
}

Query GenerateRandomFo(const RandomQueryOptions& options,
                       double negation_probability) {
  return BuildQuery(options, negation_probability);
}

}  // namespace zeroone

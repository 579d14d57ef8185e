#include "query/matcher.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "plan/clause_plan.h"
#include "plan/mode.h"

namespace zeroone {

namespace {

// A clause compiled against a concrete binding of its free variables:
// variables are collapsed into equivalence classes induced by the clause's
// equality atoms, each class optionally pinned to a value.
struct CompiledClause {
  // For each variable id appearing in the clause, its class index.
  std::map<std::size_t, std::size_t> class_of_variable;
  // Pinned value of each class (from constants / the output tuple), if any.
  std::vector<std::optional<Value>> pinned;
  // Whether the class occurs in some atom (otherwise it only needs a
  // nonempty active domain to be satisfiable).
  std::vector<bool> occurs_in_atom;
  // Atoms with terms rewritten to either a pinned Value or a class index.
  struct AtomSlot {
    bool is_class;
    std::size_t class_index;  // When is_class.
    Value value;              // Otherwise.
  };
  struct CompiledAtom {
    const Relation* relation;  // Null when the relation is absent from D.
    std::vector<AtomSlot> slots;
  };
  std::vector<CompiledAtom> atoms;
  bool unsatisfiable = false;  // Equalities force two distinct values.
};

// Union-find over a small dense set.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(std::size_t a, std::size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<std::size_t> parent_;
};

// Compiles one clause. `bound` optionally pins free variables to the values
// of an output tuple (for membership tests); when absent, free variables
// behave like existential ones and the caller projects afterwards.
CompiledClause Compile(const ConjunctiveClause& clause, const Database& db,
                       const std::map<std::size_t, Value>* bound) {
  CompiledClause out;
  // Collect the clause's variables.
  std::vector<std::size_t> variables;
  auto note_variable = [&](const Term& t) {
    if (t.is_variable() &&
        std::find(variables.begin(), variables.end(), t.variable_id()) ==
            variables.end()) {
      variables.push_back(t.variable_id());
    }
  };
  for (const CQAtom& atom : clause.atoms) {
    for (const Term& t : atom.terms) note_variable(t);
  }
  for (const auto& [l, r] : clause.equalities) {
    note_variable(l);
    note_variable(r);
  }
  if (bound != nullptr) {
    for (const auto& [var, value] : *bound) {
      note_variable(Term::Variable(var));
    }
  }
  std::map<std::size_t, std::size_t> dense;
  for (std::size_t i = 0; i < variables.size(); ++i) {
    dense[variables[i]] = i;
  }

  // Merge classes by the equality atoms; collect value pins.
  UnionFind uf(variables.size());
  std::vector<std::optional<Value>> pin(variables.size());
  bool unsat = false;
  auto pin_class = [&](std::size_t root, Value value) {
    if (pin[root] && *pin[root] != value) {
      unsat = true;
      return;
    }
    pin[root] = value;
  };
  for (const auto& [l, r] : clause.equalities) {
    if (l.is_variable() && r.is_variable()) {
      std::size_t a = uf.Find(dense[l.variable_id()]);
      std::size_t b = uf.Find(dense[r.variable_id()]);
      if (a == b) continue;
      // Merge, reconciling pins.
      std::optional<Value> pa = pin[a];
      std::optional<Value> pb = pin[b];
      uf.Union(a, b);
      std::size_t root = uf.Find(a);
      pin[root] = std::nullopt;
      if (pa) pin_class(root, *pa);
      if (pb) pin_class(root, *pb);
    } else if (l.is_variable() || r.is_variable()) {
      const Term& var = l.is_variable() ? l : r;
      const Term& val = l.is_variable() ? r : l;
      pin_class(uf.Find(dense[var.variable_id()]), val.value());
    } else if (l.value() != r.value()) {
      unsat = true;
    }
  }
  if (bound != nullptr) {
    for (const auto& [var, value] : *bound) {
      pin_class(uf.Find(dense[var]), value);
    }
  }

  // Re-number the union-find roots densely as class indices.
  std::map<std::size_t, std::size_t> class_index;
  for (std::size_t i = 0; i < variables.size(); ++i) {
    std::size_t root = uf.Find(i);
    if (class_index.find(root) == class_index.end()) {
      std::size_t index = class_index.size();
      class_index[root] = index;
    }
  }
  out.pinned.assign(class_index.size(), std::nullopt);
  out.occurs_in_atom.assign(class_index.size(), false);
  for (std::size_t i = 0; i < variables.size(); ++i) {
    std::size_t root = uf.Find(i);
    std::size_t index = class_index[root];
    out.class_of_variable[variables[i]] = index;
    if (pin[root]) out.pinned[index] = pin[root];
  }
  out.unsatisfiable = unsat;

  // Compile atoms — in cost-based order when the compiled evaluator is
  // active. Search's match set is join-order independent (each candidate
  // tuple is fully re-verified against the assignment), so the permutation
  // changes backtracking effort only, never answers.
  std::vector<std::size_t> atom_order(clause.atoms.size());
  for (std::size_t i = 0; i < atom_order.size(); ++i) atom_order[i] = i;
  if (plan::plan_mode() == plan::PlanMode::kCompiled) {
    std::vector<plan::ClauseAtom> planned;
    planned.reserve(clause.atoms.size());
    for (const CQAtom& atom : clause.atoms) {
      planned.push_back({atom.relation, atom.terms});
    }
    // A variable pinned to a value (by an equality or the output tuple)
    // counts as bound from the start.
    std::set<std::size_t> bound_vars;
    for (std::size_t i = 0; i < variables.size(); ++i) {
      if (pin[uf.Find(i)]) bound_vars.insert(variables[i]);
    }
    atom_order = plan::OrderClauseAtoms(planned, db, bound_vars);
  }
  for (std::size_t atom_index : atom_order) {
    const CQAtom& atom = clause.atoms[atom_index];
    CompiledClause::CompiledAtom compiled;
    compiled.relation =
        db.HasRelation(atom.relation) ? &db.relation(atom.relation) : nullptr;
    for (const Term& t : atom.terms) {
      CompiledClause::AtomSlot slot;
      if (t.is_variable()) {
        slot.is_class = true;
        slot.class_index = out.class_of_variable[t.variable_id()];
        out.occurs_in_atom[slot.class_index] = true;
      } else {
        slot.is_class = false;
        slot.class_index = 0;
        slot.value = t.value();
      }
      compiled.slots.push_back(slot);
    }
    out.atoms.push_back(std::move(compiled));
  }
  return out;
}

// Backtracking join: tries to extend `assignment` (class index → value)
// so that every atom maps to some tuple of its relation. Invokes `on_match`
// for each complete match; returns false from on_match to stop early.
// Returns true iff the search was stopped early (a match was accepted).
bool Search(const CompiledClause& clause, std::size_t atom_index,
            std::vector<std::optional<Value>>* assignment,
            const std::function<bool(void)>& on_match) {
  if (atom_index == clause.atoms.size()) {
    return !on_match();
  }
  const CompiledClause::CompiledAtom& atom = clause.atoms[atom_index];
  if (atom.relation == nullptr) return false;  // Absent relation: no tuples.
  const Relation& rel = *atom.relation;
  // Under compiled plans, columns already fixed by constants or bound
  // classes become a hash probe; the oracle scans every row. The
  // compatibility loop below re-verifies every candidate either way, so
  // scan and probe see identical match sets.
  std::vector<std::uint32_t> probe_ids;
  bool use_probe = false;
  if (plan::plan_mode() == plan::PlanMode::kCompiled && rel.arity() > 0 &&
      rel.arity() <= Relation::kMaxIndexedColumns &&
      atom.slots.size() == rel.arity()) {
    Relation::Mask mask = 0;
    std::vector<Value> key;
    for (std::size_t i = 0; i < atom.slots.size(); ++i) {
      const CompiledClause::AtomSlot& slot = atom.slots[i];
      if (!slot.is_class) {
        mask |= Relation::Mask{1} << i;
        key.push_back(slot.value);
      } else if ((*assignment)[slot.class_index]) {
        mask |= Relation::Mask{1} << i;
        key.push_back(*(*assignment)[slot.class_index]);
      }
    }
    if (mask != 0) {
      Relation::RowIdSpan span = rel.Probe(mask, key);
      probe_ids.assign(span.begin(), span.end());
      use_probe = true;
    }
  }
  std::size_t candidate_count = use_probe ? probe_ids.size() : rel.size();
  for (std::size_t c = 0; c < candidate_count; ++c) {
    Relation::Row tuple = rel.row(use_probe ? probe_ids[c] : c);
    // Check compatibility and collect the bindings this tuple adds.
    std::vector<std::size_t> newly_bound;
    bool compatible = true;
    for (std::size_t i = 0; i < atom.slots.size() && compatible; ++i) {
      const CompiledClause::AtomSlot& slot = atom.slots[i];
      if (!slot.is_class) {
        compatible = slot.value == tuple[i];
        continue;
      }
      std::optional<Value>& current = (*assignment)[slot.class_index];
      if (current) {
        compatible = *current == tuple[i];
      } else {
        current = tuple[i];
        newly_bound.push_back(slot.class_index);
      }
    }
    if (compatible && Search(clause, atom_index + 1, assignment, on_match)) {
      // Stop-early propagates; leave bindings as-is (caller unwinding).
      for (std::size_t c : newly_bound) (*assignment)[c] = std::nullopt;
      return true;
    }
    for (std::size_t c : newly_bound) (*assignment)[c] = std::nullopt;
  }
  return false;
}

// True iff the clause has a satisfying homomorphism into db (with free
// variables already pinned during compilation).
bool ClauseSatisfiable(const CompiledClause& clause, const Database& db) {
  if (clause.unsatisfiable) return false;
  // Classes never touched by an atom need a nonempty active domain (they
  // are existential variables ranging over adom) unless pinned.
  std::vector<Value> adom;  // Lazily computed.
  bool adom_computed = false;
  for (std::size_t c = 0; c < clause.occurs_in_atom.size(); ++c) {
    if (!clause.occurs_in_atom[c] && !clause.pinned[c]) {
      if (!adom_computed) {
        adom = db.ActiveDomain();
        adom_computed = true;
      }
      if (adom.empty()) return false;
    }
  }
  // Pinned values that must also appear in atoms are checked by Search via
  // the initial assignment.
  std::vector<std::optional<Value>> assignment = clause.pinned;
  bool found = false;
  Search(clause, 0, &assignment, [&]() {
    found = true;
    return false;  // Stop at the first match.
  });
  return found;
}

}  // namespace

bool UcqMembership(const UcqNormalForm& ucq,
                   const std::vector<std::size_t>& free_variables,
                   const Database& db, const Tuple& tuple) {
  assert(tuple.arity() == free_variables.size());
  std::map<std::size_t, Value> bound;
  for (std::size_t i = 0; i < free_variables.size(); ++i) {
    auto [it, inserted] = bound.emplace(free_variables[i], tuple[i]);
    if (!inserted && it->second != tuple[i]) return false;
  }
  for (const ConjunctiveClause& clause : ucq.disjuncts) {
    CompiledClause compiled = Compile(clause, db, &bound);
    if (ClauseSatisfiable(compiled, db)) return true;
  }
  return false;
}

std::vector<Tuple> UcqEvaluate(const UcqNormalForm& ucq,
                               const std::vector<std::size_t>& free_variables,
                               const Database& db) {
  std::set<Tuple> answers;
  std::vector<Value> adom = db.ActiveDomain();
  for (const ConjunctiveClause& clause : ucq.disjuncts) {
    CompiledClause compiled = Compile(clause, db, nullptr);
    if (compiled.unsatisfiable) continue;
    // Free variables that do not occur in this clause at all range over the
    // full active domain; handle them by enumerating after each match.
    std::vector<std::optional<Value>> assignment = compiled.pinned;
    // Check unpinned atom-free classes: they range over adom; if adom is
    // empty no match is possible (unless there are no such classes).
    auto emit = [&]() {
      // Build the answer tuple; unresolved free columns enumerate adom.
      std::vector<std::size_t> open_columns;
      std::vector<Value> values(free_variables.size(), Value());
      for (std::size_t i = 0; i < free_variables.size(); ++i) {
        auto it = compiled.class_of_variable.find(free_variables[i]);
        if (it != compiled.class_of_variable.end() &&
            assignment[it->second]) {
          values[i] = *assignment[it->second];
        } else {
          open_columns.push_back(i);
        }
      }
      if (open_columns.empty()) {
        answers.insert(Tuple(values));
        return true;  // Continue searching for more matches.
      }
      // Enumerate the open columns over adom (odometer).
      if (adom.empty()) return true;
      std::vector<std::size_t> indices(open_columns.size(), 0);
      while (true) {
        for (std::size_t j = 0; j < open_columns.size(); ++j) {
          values[open_columns[j]] = adom[indices[j]];
        }
        answers.insert(Tuple(values));
        std::size_t p = 0;
        while (p < indices.size() && ++indices[p] == adom.size()) {
          indices[p++] = 0;
        }
        if (p == indices.size()) break;
      }
      return true;
    };
    // Existential atom-free unpinned classes require nonempty adom.
    bool clause_viable = true;
    for (std::size_t c = 0; c < compiled.occurs_in_atom.size(); ++c) {
      if (!compiled.occurs_in_atom[c] && !compiled.pinned[c] && adom.empty()) {
        clause_viable = false;
      }
    }
    if (!clause_viable) continue;
    Search(compiled, 0, &assignment, emit);
  }
  return std::vector<Tuple>(answers.begin(), answers.end());
}

StatusOr<bool> UcqMembership(const Query& query, const Database& db,
                             const Tuple& tuple) {
  StatusOr<UcqNormalForm> ucq = NormalizeUcq(*query.formula());
  if (!ucq.ok()) return ucq.status();
  return UcqMembership(*ucq, query.free_variables(), db, tuple);
}

StatusOr<std::vector<Tuple>> UcqEvaluate(const Query& query,
                                         const Database& db) {
  StatusOr<UcqNormalForm> ucq = NormalizeUcq(*query.formula());
  if (!ucq.ok()) return ucq.status();
  return UcqEvaluate(*ucq, query.free_variables(), db);
}

}  // namespace zeroone

#include "core/ucq_compare.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <optional>

#include "common/cancel.h"
#include "core/measure.h"
#include "core/valuation_engine.h"
#include "data/valuation.h"
#include "query/fragments.h"
#include "query/matcher.h"

namespace zeroone {

namespace {

// Union-find over unification items (clause variables, nulls, constants)
// with class-constant annotations and an undo stack for backtracking.
class Unifier {
 public:
  // Items are encoded as (kind, id): kind 0 = clause variable, 1 = value.
  struct Item {
    int kind;
    std::size_t variable_id;
    Value value;

    static Item Var(std::size_t id) { return {0, id, Value()}; }
    static Item Val(Value v) { return {1, 0, v}; }

    friend bool operator<(const Item& a, const Item& b) {
      if (a.kind != b.kind) return a.kind < b.kind;
      if (a.kind == 0) return a.variable_id < b.variable_id;
      return a.value < b.value;
    }
  };

  std::size_t NodeOf(const Item& item) {
    auto it = index_.find(item);
    if (it != index_.end()) return it->second;
    std::size_t node = parent_.size();
    index_.emplace(item, node);
    parent_.push_back(node);
    constant_.emplace_back();
    null_.emplace_back();
    if (item.kind == 1) {
      if (item.value.is_constant()) {
        constant_[node] = item.value;
      } else {
        null_[node] = item.value;
      }
    }
    // Item creation is permanent (items exist regardless of match state);
    // only unions are undone.
    return node;
  }

  std::size_t Find(std::size_t node) const {
    while (parent_[node] != node) node = parent_[node];
    return node;
  }

  // Unifies two items. Returns false (and records nothing new that is not
  // undoable) when the classes hold distinct constants.
  bool Unify(const Item& a, const Item& b) {
    std::size_t ra = Find(NodeOf(a));
    std::size_t rb = Find(NodeOf(b));
    if (ra == rb) return true;
    if (constant_[ra] && constant_[rb] && *constant_[ra] != *constant_[rb]) {
      return false;
    }
    // Attach ra under rb; migrate annotations to the new root.
    undo_.push_back({ra, rb, constant_[rb], null_[rb]});
    parent_[ra] = rb;
    if (!constant_[rb]) constant_[rb] = constant_[ra];
    if (!null_[rb]) null_[rb] = null_[ra];
    return true;
  }

  std::size_t Mark() const { return undo_.size(); }

  void RollbackTo(std::size_t mark) {
    while (undo_.size() > mark) {
      const UndoRecord& record = undo_.back();
      parent_[record.child] = record.child;
      constant_[record.parent] = record.parent_constant;
      null_[record.parent] = record.parent_null;
      undo_.pop_back();
    }
  }

  // The constant forced on the item's class, if any.
  std::optional<Value> ForcedConstant(const Item& item) {
    return constant_[Find(NodeOf(item))];
  }

  // Root node of an item's class, for grouping.
  std::size_t RootOf(const Item& item) { return Find(NodeOf(item)); }

 private:
  struct UndoRecord {
    std::size_t child;
    std::size_t parent;
    std::optional<Value> parent_constant;
    std::optional<Value> parent_null;
  };

  std::map<Item, std::size_t> index_;
  std::vector<std::size_t> parent_;
  std::vector<std::optional<Value>> constant_;
  std::vector<std::optional<Value>> null_;
  std::vector<UndoRecord> undo_;
};

Unifier::Item TermItem(const Term& term) {
  return term.is_variable() ? Unifier::Item::Var(term.variable_id())
                            : Unifier::Item::Val(term.value());
}

// Shared context for the Sep checks of one call: the UCQ is normalized
// once and the enumeration constants drawn once, however many tuple pairs
// the call checks.
struct SeparationContext {
  const Database* db;
  UcqNormalForm ucq;
  std::vector<std::size_t> free_variables;
  std::size_t arity;
  std::vector<Value> fresh_pool;  // Constants for free null classes.
  // v′(D) at the search leaves, over Null(D); nulls v′ leaves unbound map
  // to themselves. Working state, moved from leaf to leaf.
  std::unique_ptr<ValuationImage> image;
};

// Builds the most-general valuation for the current unification state:
// every null whose class is pinned to a constant maps there; the remaining
// null classes get pairwise-distinct fresh constants.
Valuation MostGeneralValuation(Unifier* unifier,
                               const std::vector<Value>& nulls,
                               const std::vector<Value>& fresh_pool) {
  Valuation v;
  std::map<std::size_t, Value> class_fresh;
  std::size_t next_fresh = 0;
  for (Value null : nulls) {
    std::size_t root = unifier->RootOf(Unifier::Item::Val(null));
    std::optional<Value> forced =
        unifier->ForcedConstant(Unifier::Item::Val(null));
    if (forced) {
      v.Bind(null, *forced);
      continue;
    }
    auto it = class_fresh.find(root);
    if (it == class_fresh.end()) {
      assert(next_fresh < fresh_pool.size());
      it = class_fresh.emplace(root, fresh_pool[next_fresh++]).first;
    }
    v.Bind(null, it->second);
  }
  return v;
}

// Collects the nulls currently in the unifier's domain that came from the
// matched tuples and ā (i.e. the domain of v′).
template <typename Values>
void CollectNulls(const Values& tuple, std::vector<Value>* nulls) {
  for (Value v : tuple) {
    if (v.is_null()) {
      bool seen = false;
      for (Value existing : *nulls) seen = seen || existing == v;
      if (!seen) nulls->push_back(v);
    }
  }
}

// Recursive assignment of clause atoms to database tuples.
bool MatchAtoms(const SeparationContext& context, const Tuple& b,
                const ConjunctiveClause& clause, std::size_t atom_index,
                Unifier* unifier, std::vector<Value>* domain_nulls) {
  if (atom_index == clause.atoms.size()) {
    // Full assignment: build v′ and test v′(b̄) ∉ Q^naive(v′(D)).
    Valuation v = MostGeneralValuation(unifier, *domain_nulls,
                                       context.fresh_pool);
    context.image->Assign(v);
    return !UcqMembership(context.ucq, context.free_variables,
                          context.image->database(), v.Apply(b));
  }
  const CQAtom& atom = clause.atoms[atom_index];
  if (!context.db->HasRelation(atom.relation)) return false;
  const Relation& relation = context.db->relation(atom.relation);
  for (Relation::Row tuple : relation) {
    // Cooperative cancellation: a cancelled search reports "no witness";
    // the token's installer discards the result.
    if (CancellationRequested()) return false;
    if (tuple.arity() != atom.terms.size()) continue;
    std::size_t mark = unifier->Mark();
    std::size_t nulls_before = domain_nulls->size();
    bool consistent = true;
    for (std::size_t i = 0; i < atom.terms.size() && consistent; ++i) {
      consistent = unifier->Unify(TermItem(atom.terms[i]),
                                  Unifier::Item::Val(tuple[i]));
    }
    if (consistent) {
      CollectNulls(tuple, domain_nulls);
      if (MatchAtoms(context, b, clause, atom_index + 1, unifier,
                     domain_nulls)) {
        return true;
      }
    }
    unifier->RollbackTo(mark);
    domain_nulls->resize(nulls_before);
  }
  return false;
}

// `max_tuple_nulls` bounds the nulls of any ā the context will be asked
// about.
StatusOr<SeparationContext> MakeContext(const Query& query, const Database& db,
                                        std::size_t max_tuple_nulls) {
  StatusOr<UcqNormalForm> ucq = NormalizeUcq(*query.formula());
  if (!ucq.ok()) return ucq.status();
  SeparationContext context;
  context.db = &db;
  context.ucq = std::move(*ucq);
  context.free_variables = query.free_variables();
  context.arity = query.arity();
  // Upper bound on free null classes: nulls of D plus nulls of ā.
  context.fresh_pool = Value::EnumerationConstants(
      db.Nulls().size() + max_tuple_nulls, db.Constants());
  context.image =
      std::make_unique<ValuationImage>(db, db.Nulls(), EngineImageMode());
  return context;
}

StatusOr<bool> Separates(const SeparationContext& context, const Tuple& a,
                         const Tuple& b) {
  if (a.arity() != context.arity || b.arity() != context.arity) {
    return Status::Error("UcqSeparates: tuple arity mismatch");
  }
  for (const ConjunctiveClause& clause : context.ucq.disjuncts) {
    Unifier unifier;
    // Pin the free variables to ā's components and apply the clause's
    // equality atoms.
    bool consistent = true;
    for (std::size_t i = 0; i < context.free_variables.size() && consistent;
         ++i) {
      consistent = unifier.Unify(Unifier::Item::Var(context.free_variables[i]),
                                 Unifier::Item::Val(a[i]));
    }
    for (const auto& [l, r] : clause.equalities) {
      if (!consistent) break;
      consistent = unifier.Unify(TermItem(l), TermItem(r));
    }
    if (!consistent) continue;
    std::vector<Value> domain_nulls;
    CollectNulls(a, &domain_nulls);
    // Nulls pulled in by equality terms also belong to v′'s domain.
    for (const auto& [l, r] : clause.equalities) {
      for (const Term* t : {&l, &r}) {
        if (t->is_value() && t->value().is_null()) {
          CollectNulls(Tuple{t->value()}, &domain_nulls);
        }
      }
    }
    if (MatchAtoms(context, b, clause, 0, &unifier, &domain_nulls)) {
      return true;
    }
  }
  return false;
}

}  // namespace

StatusOr<bool> UcqSeparates(const Query& query, const Database& db,
                            const Tuple& a, const Tuple& b) {
  StatusOr<SeparationContext> context =
      MakeContext(query, db, a.Nulls().size());
  if (!context.ok()) return context.status();
  return Separates(*context, a, b);
}

StatusOr<bool> UcqWeaklyDominated(const Query& query, const Database& db,
                                  const Tuple& a, const Tuple& b) {
  StatusOr<bool> sep = UcqSeparates(query, db, a, b);
  if (!sep.ok()) return sep;
  return !*sep;
}

StatusOr<bool> UcqStrictlyDominated(const Query& query, const Database& db,
                                    const Tuple& a, const Tuple& b) {
  StatusOr<bool> ab = UcqSeparates(query, db, a, b);
  if (!ab.ok()) return ab;
  if (*ab) return false;
  return UcqSeparates(query, db, b, a);
}

StatusOr<std::vector<Tuple>> UcqBestAnswersAmong(
    const Query& query, const Database& db,
    const std::vector<Tuple>& candidates) {
  std::size_t max_tuple_nulls = 0;
  for (const Tuple& t : candidates) {
    max_tuple_nulls = std::max(max_tuple_nulls, t.Nulls().size());
  }
  StatusOr<SeparationContext> context =
      MakeContext(query, db, max_tuple_nulls);
  if (!context.ok()) return context.status();
  // Precompute the pairwise Sep matrix; best = not strictly dominated.
  std::vector<std::vector<bool>> sep(candidates.size(),
                                     std::vector<bool>(candidates.size()));
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      if (i == j) {
        sep[i][j] = false;
        continue;
      }
      // A cancelled call answers garbage by convention (common/cancel.h).
      if (CancellationRequested()) return std::vector<Tuple>{};
      StatusOr<bool> s = Separates(*context, candidates[i], candidates[j]);
      if (!s.ok()) return s.status();
      sep[i][j] = *s;
    }
  }
  std::vector<Tuple> best;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < candidates.size() && !dominated; ++j) {
      if (i == j) continue;
      // i ◁ j ⇔ ¬Sep(i,j) ∧ Sep(j,i).
      dominated = !sep[i][j] && sep[j][i];
    }
    if (!dominated) best.push_back(candidates[i]);
  }
  return best;
}

StatusOr<std::vector<Tuple>> UcqBestAnswers(const Query& query,
                                            const Database& db) {
  return UcqBestAnswersAmong(query, db,
                             AllTuplesOverAdom(db, query.arity()));
}

StatusOr<std::vector<Tuple>> UcqBestMuAnswers(const Query& query,
                                              const Database& db) {
  StatusOr<std::vector<Tuple>> best = UcqBestAnswers(query, db);
  if (!best.ok()) return best;
  std::vector<Tuple> result;
  for (const Tuple& t : *best) {
    StatusOr<bool> member = UcqMembership(query, db, t);
    if (!member.ok()) return member.status();
    if (*member) result.push_back(t);
  }
  return result;
}

}  // namespace zeroone

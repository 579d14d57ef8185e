#include "datalog/eval.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <set>

#include "common/cancel.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/pool.h"
#include "plan/datalog_plan.h"
#include "plan/mode.h"

namespace zeroone {

namespace {

// A variable binding during rule instantiation.
using Binding = std::vector<std::optional<Value>>;

std::size_t RuleVariableCount(const DatalogRule& rule) {
  std::size_t count = rule.variable_names.size();
  auto note = [&](const DatalogAtom& atom) {
    for (const Term& t : atom.terms) {
      if (t.is_variable()) count = std::max(count, t.variable_id() + 1);
    }
  };
  note(rule.head);
  for (const DatalogLiteral& literal : rule.body) note(literal.atom);
  return count;
}

// Tries to match `atom` against `tuple`, extending the binding; returns the
// variables newly bound (for rollback), or nullopt on mismatch.
std::optional<std::vector<std::size_t>> MatchAtom(const DatalogAtom& atom,
                                                  Relation::Row tuple,
                                                  Binding* binding) {
  if (atom.terms.size() != tuple.arity()) return std::nullopt;
  std::vector<std::size_t> newly_bound;
  for (std::size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& t = atom.terms[i];
    if (t.is_value()) {
      if (t.value() != tuple[i]) {
        for (std::size_t v : newly_bound) (*binding)[v] = std::nullopt;
        return std::nullopt;
      }
      continue;
    }
    std::optional<Value>& slot = (*binding)[t.variable_id()];
    if (slot) {
      if (*slot != tuple[i]) {
        for (std::size_t v : newly_bound) (*binding)[v] = std::nullopt;
        return std::nullopt;
      }
    } else {
      slot = tuple[i];
      newly_bound.push_back(t.variable_id());
    }
  }
  return newly_bound;
}

// The instantiated image of an atom under a (total-enough) binding.
Tuple Instantiate(const DatalogAtom& atom, const Binding& binding) {
  std::vector<Value> values;
  values.reserve(atom.terms.size());
  for (const Term& t : atom.terms) {
    if (t.is_value()) {
      values.push_back(t.value());
    } else {
      assert(binding[t.variable_id()] && "unsafe rule slipped through");
      values.push_back(*binding[t.variable_id()]);
    }
  }
  return Tuple(std::move(values));
}

// Relation lookup that treats missing relations as empty.
const Relation& RelationOf(const Database& db, const std::string& predicate) {
  static const Relation kEmpty;
  if (!db.HasRelation(predicate)) return kEmpty;
  return db.relation(predicate);
}

// Iterates the rows of `rel` that can match `atom` under `binding`. Under
// compiled plans, columns already fixed by constant terms or bound
// variables become a hash probe; the oracle (PlanMode::kInterpret) visits
// every row. Either way MatchAtom re-verifies each candidate, so the two
// paths see identical match sets.
template <typename Fn>
void ForEachCandidate(const Relation& rel, const DatalogAtom& atom,
                      const Binding& binding, Fn&& fn) {
  if (plan::plan_mode() == plan::PlanMode::kCompiled &&
      atom.terms.size() == rel.arity() && rel.arity() > 0 &&
      rel.arity() <= Relation::kMaxIndexedColumns) {
    Relation::Mask mask = 0;
    std::vector<Value> key;
    for (std::size_t i = 0; i < atom.terms.size(); ++i) {
      const Term& t = atom.terms[i];
      if (t.is_value()) {
        mask |= Relation::Mask{1} << i;
        key.push_back(t.value());
      } else if (binding[t.variable_id()]) {
        mask |= Relation::Mask{1} << i;
        key.push_back(*binding[t.variable_id()]);
      }
    }
    if (mask != 0) {
      for (std::uint32_t pos : rel.Probe(mask, key)) fn(rel.row(pos));
      return;
    }
  }
  for (std::size_t pos = 0; pos < rel.size(); ++pos) fn(rel.row(pos));
}

// Adapts a rule body to the planner's literal structs.
std::vector<plan::BodyLiteral> PlannedBody(const DatalogRule& rule) {
  std::vector<plan::BodyLiteral> body;
  body.reserve(rule.body.size());
  for (const DatalogLiteral& literal : rule.body) {
    body.push_back(
        {literal.atom.predicate, literal.atom.terms, literal.negated});
  }
  return body;
}

// Recursively instantiates positive body literals (literal `delta_index`
// drawing from `delta` instead of the full database), then checks negated
// literals and emits the head instantiation. When `order` is non-null
// (compiled plan mode), position i evaluates body[(*order)[i]] — delta
// designation and ground-negation checks follow the actual literal, so
// the derived set is the written-order one (join order is invisible to a
// set of instantiations).
void FireRule(const DatalogRule& rule, const Database& db,
              const std::map<std::string, Relation>* delta, int delta_index,
              const std::vector<std::size_t>* order,
              std::size_t literal_index, Binding* binding,
              std::set<Tuple>* derived) {
  if (literal_index == rule.body.size()) {
    ZO_COUNTER_INC("datalog.rule_firings");
    derived->insert(Instantiate(rule.head, *binding));
    return;
  }
  std::size_t actual =
      order != nullptr ? (*order)[literal_index] : literal_index;
  const DatalogLiteral& literal = rule.body[actual];
  if (literal.negated) {
    // Negated literals refer to lower strata (or EDB), fully materialized
    // in `db`; safety (plus the orderer's ground-only placement) guarantees
    // the atom is ground here.
    Tuple image = Instantiate(literal.atom, *binding);
    bool present = db.HasRelation(literal.atom.predicate) &&
                   db.relation(literal.atom.predicate).Contains(image);
    if (!present) {
      FireRule(rule, db, delta, delta_index, order, literal_index + 1,
               binding, derived);
    }
    return;
  }
  // Positive literal: iterate matching tuples, from the delta if this is
  // the designated delta position.
  auto scan = [&](Relation::Row tuple) {
    std::optional<std::vector<std::size_t>> bound =
        MatchAtom(literal.atom, tuple, binding);
    if (!bound) return;
    FireRule(rule, db, delta, delta_index, order, literal_index + 1, binding,
             derived);
    for (std::size_t v : *bound) (*binding)[v] = std::nullopt;
  };
  if (delta != nullptr && static_cast<int>(actual) == delta_index) {
    auto it = delta->find(literal.atom.predicate);
    if (it == delta->end()) return;
    ForEachCandidate(it->second, literal.atom, *binding, scan);
  } else {
    ForEachCandidate(RelationOf(db, literal.atom.predicate), literal.atom,
                     *binding, scan);
  }
}

// Evaluates one whole rule body into `derived`, parallelizing the first
// evaluated literal: its candidate rows are materialized once (the rows of
// the delta or full relation that a probe under the empty binding admits)
// and swept in morsels, each worker joining the remaining literals via
// FireRule into a per-morsel derived set. The per-morsel sets union into
// `derived` — a set union is order-free, so the round's derived set, and
// with it every fixpoint, is byte-identical at any thread count. Falls back
// to the plain recursion when the first literal is negated (ground check,
// nothing to partition) or the body is empty.
//
// Every candidate polls the CancelToken and passes the deterministic
// `datalog.join.cancel` fault site (the standing datalog-loop fault
// coverage item): a deadline or injected fault abandons the join mid-sweep
// and the token's installer discards the partial materialization.
void FireRuleAll(const DatalogRule& rule, const Database& db,
                 const std::map<std::string, Relation>* delta,
                 int delta_index, const std::vector<std::size_t>* order,
                 std::set<Tuple>* derived) {
  std::size_t variable_count = RuleVariableCount(rule);
  std::size_t actual = order != nullptr && !order->empty() ? (*order)[0] : 0;
  const Relation* rel = nullptr;
  if (!rule.body.empty() && !rule.body[actual].negated) {
    const DatalogLiteral& literal = rule.body[actual];
    if (delta != nullptr && static_cast<int>(actual) == delta_index) {
      auto it = delta->find(literal.atom.predicate);
      if (it == delta->end()) return;
      rel = &it->second;
    } else {
      rel = &RelationOf(db, literal.atom.predicate);
    }
  }
  if (rel == nullptr) {
    Binding binding(variable_count);
    FireRule(rule, db, delta, delta_index, order, 0, &binding, derived);
    return;
  }
  const DatalogLiteral& literal = rule.body[actual];
  Binding empty_binding(variable_count);
  std::vector<Relation::Row> candidates;
  ForEachCandidate(*rel, literal.atom, empty_binding,
                   [&](Relation::Row row) { candidates.push_back(row); });
  par::ForPlan morsels =
      par::PlanMorsels(candidates.size(), par::ForOptions{});
  std::vector<std::set<Tuple>> slots(morsels.morsels);
  par::ParallelFor(morsels, [&](const par::Morsel& m, std::size_t) {
    Binding binding(variable_count);
    std::set<Tuple>& slot = slots[m.index];
    for (std::size_t i = m.begin; i < m.end; ++i) {
      if (ZO_FAULT_POINT("datalog.join.cancel")) {
        if (CancelToken* token = CurrentCancelToken()) token->Cancel();
      }
      if (CancellationRequested()) return false;
      std::optional<std::vector<std::size_t>> bound =
          MatchAtom(literal.atom, candidates[i], &binding);
      if (!bound) continue;
      FireRule(rule, db, delta, delta_index, order, 1, &binding, &slot);
      for (std::size_t v : *bound) binding[v] = std::nullopt;
    }
    return true;
  });
  for (std::set<Tuple>& slot : slots) derived->merge(slot);
}

// Merges `derived` into the head relation, counting genuinely new facts
// into `next_delta` (built per predicate with the head's arity). The new
// facts join the relation in one InsertBatch rather than n sorted inserts.
void MergeDerived(const DatalogRule& rule, const std::set<Tuple>& derived,
                  Database* materialized,
                  std::map<std::string, Relation>* next_delta) {
  Relation& relation = materialized->mutable_relation(rule.head.predicate);
  std::vector<Tuple> fresh;
  for (const Tuple& t : derived) {
    if (!relation.Contains(t)) fresh.push_back(t);
  }
  if (fresh.empty()) return;
  auto [it, inserted] = next_delta->try_emplace(
      rule.head.predicate,
      Relation(rule.head.predicate, rule.head.terms.size()));
  for (const Tuple& t : fresh) {
    ZO_COUNTER_INC("datalog.facts_derived");
    it->second.Insert(t);
  }
  relation.InsertBatch(fresh);
}

}  // namespace

Database MaterializeDatalog(const DatalogProgram& program,
                            const Database& db) {
  ZO_TRACE_SPAN("MaterializeDatalog");
  Database materialized = db;
  // Declare all intensional relations (possibly empty).
  std::map<std::string, std::size_t> idb_arity;
  for (const DatalogRule& rule : program.rules()) {
    idb_arity[rule.head.predicate] = rule.head.terms.size();
  }
  for (const auto& [predicate, arity] : idb_arity) {
    materialized.AddRelation(predicate, arity);
  }

  for (const std::vector<std::string>& stratum : program.strata()) {
    std::set<std::string> in_stratum(stratum.begin(), stratum.end());
    std::vector<const DatalogRule*> stratum_rules;
    for (const DatalogRule& rule : program.rules()) {
      if (in_stratum.count(rule.head.predicate) != 0) {
        stratum_rules.push_back(&rule);
      }
    }
    // Initial round: full evaluation of every rule of the stratum.
    ZO_COUNTER_INC("datalog.rounds");
    bool planned = plan::plan_mode() == plan::PlanMode::kCompiled;
    std::map<std::string, Relation> delta;
    for (const DatalogRule* rule : stratum_rules) {
      std::set<Tuple> derived;
      std::vector<std::size_t> order;
      if (planned) {
        order =
            plan::OrderBody(PlannedBody(*rule), materialized, -1, nullptr)
                .order;
      }
      FireRuleAll(*rule, materialized, nullptr, -1,
                  planned ? &order : nullptr, &derived);
      MergeDerived(*rule, derived, &materialized, &delta);
    }
    // Semi-naive rounds: each recursive instantiation uses the latest delta
    // in one positive literal position. A cancellation request abandons the
    // fixpoint mid-way; the token's installer discards the partial result.
    while (!delta.empty() && !CancellationRequested()) {
      ZO_COUNTER_INC("datalog.rounds");
      std::map<std::string, Relation> next_delta;
      for (const DatalogRule* rule : stratum_rules) {
        for (std::size_t i = 0; i < rule->body.size(); ++i) {
          const DatalogLiteral& literal = rule->body[i];
          if (literal.negated) continue;
          if (in_stratum.count(literal.atom.predicate) == 0) continue;
          auto delta_it = delta.find(literal.atom.predicate);
          if (delta_it == delta.end()) continue;
          std::set<Tuple> derived;
          std::vector<std::size_t> order;
          if (planned) {
            // Re-planned per round: the delta shrinks as the fixpoint
            // converges, pulling the delta literal outward.
            order = plan::OrderBody(PlannedBody(*rule), materialized,
                                    static_cast<int>(i), &delta_it->second)
                        .order;
          }
          FireRuleAll(*rule, materialized, &delta, static_cast<int>(i),
                      planned ? &order : nullptr, &derived);
          MergeDerived(*rule, derived, &materialized, &next_delta);
        }
      }
      delta = std::move(next_delta);
    }
  }
  return materialized;
}

std::vector<Tuple> EvaluateDatalog(const DatalogProgram& program,
                                   const Database& db) {
  Database materialized = MaterializeDatalog(program, db);
  if (!materialized.HasRelation(program.goal_predicate())) return {};
  return materialized.relation(program.goal_predicate()).Tuples();
}

bool DatalogMembership(const DatalogProgram& program, const Database& db,
                       const Tuple& tuple) {
  Database materialized = MaterializeDatalog(program, db);
  return materialized.HasRelation(program.goal_predicate()) &&
         materialized.relation(program.goal_predicate()).Contains(tuple);
}

std::string ExplainDatalogPlan(const DatalogProgram& program,
                               const Database& db) {
  // Orders are what the initial full round would use against `db` with the
  // intensional relations declared empty (exactly MaterializeDatalog's
  // starting state); semi-naive rounds re-plan against the live delta.
  Database declared = db;
  for (const DatalogRule& rule : program.rules()) {
    declared.AddRelation(rule.head.predicate, rule.head.terms.size());
  }
  std::string out = "datalog plan (initial round)\n";
  char buffer[64];
  for (std::size_t r = 0; r < program.rules().size(); ++r) {
    const DatalogRule& rule = program.rules()[r];
    out += "rule " + std::to_string(r) + ": " + rule.ToString() + "\n";
    plan::BodyOrder body_order =
        plan::OrderBody(PlannedBody(rule), declared, -1, nullptr);
    for (std::size_t i = 0; i < body_order.order.size(); ++i) {
      const DatalogLiteral& literal = rule.body[body_order.order[i]];
      std::snprintf(buffer, sizeof(buffer), " est=%.3g",
                    body_order.estimates[i]);
      out += "  " + std::to_string(i + 1) + ". " +
             (literal.negated ? "not " : "") +
             literal.atom.ToString(rule.variable_names) + buffer + "\n";
    }
  }
  return out;
}

}  // namespace zeroone

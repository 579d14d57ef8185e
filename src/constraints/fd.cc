#include "constraints/fd.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>

#include "common/cancel.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/mode.h"

namespace zeroone {

FunctionalDependency::FunctionalDependency(std::string relation,
                                           std::size_t arity,
                                           std::vector<std::size_t> lhs,
                                           std::size_t rhs)
    : relation_(std::move(relation)),
      arity_(arity),
      lhs_(std::move(lhs)),
      rhs_(rhs) {
  assert(rhs_ < arity_ && "FD rhs position out of range");
  for (std::size_t p : lhs_) {
    assert(p < arity_ && "FD lhs position out of range");
    (void)p;
  }
  assert(std::find(lhs_.begin(), lhs_.end(), rhs_) == lhs_.end() &&
         "trivial FD: rhs contained in lhs");
}

FormulaPtr FunctionalDependency::ToFormula() const {
  std::size_t width = arity_;
  // Variables 0..width-1 for x̄, width..2*width-1 for ȳ.
  std::vector<Term> xs;
  std::vector<Term> ys;
  std::vector<std::size_t> all_vars;
  for (std::size_t i = 0; i < width; ++i) {
    xs.push_back(Term::Variable(i));
    ys.push_back(Term::Variable(width + i));
    all_vars.push_back(i);
  }
  for (std::size_t i = 0; i < width; ++i) all_vars.push_back(width + i);
  std::vector<FormulaPtr> premises = {Formula::Atom(relation_, xs),
                                      Formula::Atom(relation_, ys)};
  for (std::size_t p : lhs_) {
    premises.push_back(Formula::Equals(xs[p], ys[p]));
  }
  FormulaPtr conclusion = Formula::Equals(xs[rhs_], ys[rhs_]);
  return Formula::Forall(
      all_vars, Formula::Implies(Formula::And(std::move(premises)),
                                 std::move(conclusion)));
}

std::string FunctionalDependency::ToString() const {
  std::string result = relation_ + ": {";
  for (std::size_t i = 0; i < lhs_.size(); ++i) {
    if (i > 0) result += ",";
    result += std::to_string(lhs_[i]);
  }
  result += "} -> " + std::to_string(rhs_);
  return result;
}

namespace {

// Replaces every occurrence of `from` by `to` in the database and the
// mapping (a chase merge step).
void ReplaceEverywhere(Value from, Value to, Database* db,
                       std::map<Value, Value>* mapping) {
  Database replaced(db->schema());
  for (const auto& [name, rel] : db->relations()) {
    Relation::Builder out(name, rel.arity());
    std::vector<Value> values(rel.arity());
    for (Relation::Row tuple : rel) {
      for (std::size_t i = 0; i < values.size(); ++i) {
        values[i] = tuple[i] == from ? to : tuple[i];
      }
      out.AddRow(values.data());
    }
    replaced.mutable_relation(name) = std::move(out).Build();
  }
  *db = std::move(replaced);
  for (auto& [original, current] : *mapping) {
    if (current == from) current = to;
  }
}

// The first violating pair of `fd` in `rel`, as sorted positions (i, j),
// i < j, or nullopt when the FD holds. Under compiled plans the inner loop
// probes the LHS-column index for rows agreeing with row i; the oracle runs
// the full nested scan. Probe spans ascend in sorted order, so the pair
// found is exactly the one the scan finds — the chase stays byte-for-byte
// deterministic.
std::optional<std::pair<std::size_t, std::size_t>> FindViolation(
    const Relation& rel, const FunctionalDependency& fd) {
  std::vector<std::size_t> lhs_sorted(fd.lhs());
  std::sort(lhs_sorted.begin(), lhs_sorted.end());
  lhs_sorted.erase(std::unique(lhs_sorted.begin(), lhs_sorted.end()),
                   lhs_sorted.end());
  const bool indexed = plan::plan_mode() == plan::PlanMode::kCompiled &&
                       !lhs_sorted.empty() &&
                       rel.arity() <= Relation::kMaxIndexedColumns;
  const Relation::Mask mask =
      indexed ? Relation::MaskOfColumns(lhs_sorted) : 0;
  std::vector<Value> key(lhs_sorted.size());
  for (std::size_t i = 0; i < rel.size(); ++i) {
    Relation::Row t1 = rel.row(i);
    if (indexed) {
      for (std::size_t k = 0; k < lhs_sorted.size(); ++k) {
        key[k] = t1[lhs_sorted[k]];
      }
      for (std::uint32_t j : rel.Probe(mask, key)) {
        if (j <= i) continue;
        if (rel.row(j)[fd.rhs()] != t1[fd.rhs()]) return std::pair{i, std::size_t{j}};
      }
    } else {
      for (std::size_t j = i + 1; j < rel.size(); ++j) {
        Relation::Row t2 = rel.row(j);
        bool lhs_agree = true;
        for (std::size_t p : fd.lhs()) {
          if (t1[p] != t2[p]) {
            lhs_agree = false;
            break;
          }
        }
        if (!lhs_agree) continue;
        if (t2[fd.rhs()] != t1[fd.rhs()]) return std::pair{i, j};
      }
    }
  }
  return std::nullopt;
}

}  // namespace

ChaseResult ChaseFds(const std::vector<FunctionalDependency>& fds,
                     const Database& db) {
  ZO_TRACE_SPAN("ChaseFds");
  ChaseResult result;
  result.database = db;
  for (Value null : db.Nulls()) {
    result.null_mapping.emplace(null, null);
  }
  // Fixpoint loop: scan for violations; each resolution strictly decreases
  // the number of distinct values or repairs a violation, so the loop
  // terminates in polynomially many steps.
  bool changed = true;
  while (changed) {
    if (CancellationRequested()) {
      result.cancelled = true;
      result.failure_reason = "chase cancelled before reaching a fixpoint";
      return result;  // success stays false: the database is half-repaired.
    }
    ZO_COUNTER_INC("chase.rounds");
    if (ZO_FAULT_POINT("chase.step.fail")) {
      // Simulated chase-step failure: route through the normal failure
      // path so no half-repaired database is ever committed.
      result.success = false;
      result.failure_reason = "injected fault: chase.step.fail";
      return result;
    }
    changed = false;
    for (const FunctionalDependency& fd : fds) {
      if (!result.database.HasRelation(fd.relation())) continue;
      const Relation& rel = result.database.relation(fd.relation());
      std::optional<std::pair<std::size_t, std::size_t>> violation =
          FindViolation(rel, fd);
      if (!violation) continue;
      // A repair rebuilds result.database, dangling `rel` (and t1/t2), so
      // resolve this one violation, then restart the scan with fresh
      // references: nothing below the repair may touch them.
      Relation::Row t1 = rel.row(violation->first);
      Relation::Row t2 = rel.row(violation->second);
      Value a = t1[fd.rhs()];
      Value b = t2[fd.rhs()];
      // Resolve per the three chase cases.
      if (a.is_null() && b.is_constant()) {
        ZO_COUNTER_INC("chase.fd_repairs");
        ReplaceEverywhere(a, b, &result.database, &result.null_mapping);
      } else if (b.is_null() && a.is_constant()) {
        ZO_COUNTER_INC("chase.fd_repairs");
        ReplaceEverywhere(b, a, &result.database, &result.null_mapping);
      } else if (a.is_null() && b.is_null()) {
        ZO_COUNTER_INC("chase.fd_repairs");
        ReplaceEverywhere(b, a, &result.database, &result.null_mapping);
      } else {
        result.success = false;
        result.failure_reason = "chase failure on " + fd.ToString() +
                                ": tuples " + t1.ToString() + " and " +
                                t2.ToString() +
                                " force distinct constants " +
                                a.ToString() + " = " + b.ToString();
        return result;
      }
      changed = true;
      break;
    }
  }
  result.success = true;
  return result;
}

}  // namespace zeroone

#include "plan/ir.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "plan/cost.h"

namespace zeroone {
namespace plan {

namespace {

// An eligible candidate atom: the formula atom plus the quantifier
// variables crossed on the way down to it (those are rebound below the loop
// being planned, so they cannot contribute to the probe key).
struct CandidateAtom {
  const Formula* atom;
  std::vector<std::size_t> shadowed;
};

class Planner {
 public:
  Planner(const Database& db, std::size_t variable_count)
      : db_(db),
        domain_size_(static_cast<double>(db.ActiveDomain().size())),
        bound_(variable_count, 0) {}

  bool IsBound(std::size_t var) const {
    return var < bound_.size() && bound_[var] != 0;
  }
  void Bind(std::size_t var) {
    if (var >= bound_.size()) bound_.resize(var + 1, 0);
    bound_[var] = 1;
  }
  void Unbind(std::size_t var) { bound_[var] = 0; }

  // Plans one formula under the current static binding environment.
  PlanNodePtr Plan(const Formula& f) {
    auto node = std::make_unique<PlanNode>();
    switch (f.kind()) {
      case Formula::Kind::kTrue:
        node->op = PlanNode::Op::kTrue;
        node->cost = 0.0;
        return node;
      case Formula::Kind::kFalse:
        node->op = PlanNode::Op::kFalse;
        node->cost = 0.0;
        return node;
      case Formula::Kind::kAtom:
        node->op = PlanNode::Op::kAtomCheck;
        node->relation = f.relation_name();
        node->terms = f.terms();
        node->est_matches = EstimateAtomMatches(
            db_, node->relation, node->terms,
            [](std::size_t) { return true; });
        // All terms are bound at check time, so the estimate approximates
        // the probability of a hit; cheaper-and-more-selective sorts first.
        node->cost = 2.0 + std::min(node->est_matches, 1.0);
        return node;
      case Formula::Kind::kEquals:
        node->op = PlanNode::Op::kEquals;
        node->terms = {f.left(), f.right()};
        node->cost = 1.0;
        return node;
      case Formula::Kind::kNot:
        node->op = PlanNode::Op::kNot;
        node->children.push_back(Plan(*f.children()[0]));
        node->cost = 1.0 + node->children[0]->cost;
        return node;
      case Formula::Kind::kAnd:
      case Formula::Kind::kOr: {
        node->op = f.kind() == Formula::Kind::kAnd ? PlanNode::Op::kAnd
                                                   : PlanNode::Op::kOr;
        for (const FormulaPtr& child : f.children()) {
          node->children.push_back(Plan(*child));
        }
        // Evaluate cheap operands first; ∧ and ∨ short-circuit, and the
        // operands are evaluated under one environment, so any order is
        // equivalent. Stable: ties keep source order (determinism).
        std::stable_sort(node->children.begin(), node->children.end(),
                         [](const PlanNodePtr& a, const PlanNodePtr& b) {
                           return a->cost < b->cost;
                         });
        node->cost = 1.0;
        for (const PlanNodePtr& child : node->children) {
          node->cost += child->cost;
        }
        return node;
      }
      case Formula::Kind::kImplies:
        node->op = PlanNode::Op::kImplies;
        node->children.push_back(Plan(*f.children()[0]));
        node->children.push_back(Plan(*f.children()[1]));
        node->cost =
            1.0 + node->children[0]->cost + node->children[1]->cost;
        return node;
      case Formula::Kind::kExists:
      case Formula::Kind::kForall: {
        bool exists = f.kind() == Formula::Kind::kExists;
        node->op = exists ? PlanNode::Op::kExists : PlanNode::Op::kForall;
        node->var = f.bound_variable();
        std::vector<CandidateAtom> atoms;
        std::vector<std::size_t> shadowed;
        if (exists) {
          CollectRequired(*f.children()[0], node->var, &shadowed, &atoms);
        } else {
          CollectVacuity(*f.children()[0], node->var, &shadowed, &atoms);
        }
        node->candidates = PickCandidate(atoms, node->var);
        bool was_bound = IsBound(node->var);
        Bind(node->var);
        node->children.push_back(Plan(*f.children()[0]));
        if (!was_bound) Unbind(node->var);
        double range = domain_size_;
        if (node->candidates) {
          range = std::min(range, node->candidates->est_matches);
        }
        node->cost = 4.0 + range * (1.0 + node->children[0]->cost);
        return node;
      }
    }
    node->op = PlanNode::Op::kFalse;
    return node;
  }

  // Positive atoms over `var` that every satisfying extension must match:
  // if no row of one can match with var = v, the formula is false at v.
  // Quantifiers crossed on the way down rebind their variable; those
  // variables accumulate in `shadowed` and count as unbound.
  void CollectRequired(const Formula& f, std::size_t var,
                       std::vector<std::size_t>* shadowed,
                       std::vector<CandidateAtom>* out) {
    switch (f.kind()) {
      case Formula::Kind::kAtom:
        for (const Term& t : f.terms()) {
          if (t.is_variable() && t.variable_id() == var) {
            out->push_back({&f, *shadowed});
            return;
          }
        }
        return;
      case Formula::Kind::kAnd:
        for (const FormulaPtr& child : f.children()) {
          CollectRequired(*child, var, shadowed, out);
        }
        return;
      case Formula::Kind::kExists:
        if (f.bound_variable() == var) return;
        shadowed->push_back(f.bound_variable());
        CollectRequired(*f.children()[0], var, shadowed, out);
        shadowed->pop_back();
        return;
      default:
        return;
    }
  }

  // Atoms whose unmatchability at var = v makes `f` vacuously true (the
  // dual, for ∀): a failed premise, a refuted negation, or such an atom
  // inside ∀/∃/∨.
  void CollectVacuity(const Formula& f, std::size_t var,
                      std::vector<std::size_t>* shadowed,
                      std::vector<CandidateAtom>* out) {
    switch (f.kind()) {
      case Formula::Kind::kImplies:
      case Formula::Kind::kNot:
        CollectRequired(*f.children()[0], var, shadowed, out);
        return;
      case Formula::Kind::kForall:
      case Formula::Kind::kExists:
        if (f.bound_variable() == var) return;
        shadowed->push_back(f.bound_variable());
        CollectVacuity(*f.children()[0], var, shadowed, out);
        shadowed->pop_back();
        return;
      case Formula::Kind::kOr:
        for (const FormulaPtr& child : f.children()) {
          CollectVacuity(*child, var, shadowed, out);
        }
        return;
      default:
        return;
    }
  }

  // Classifies one eligible atom into a CandidateSource, or nullopt when
  // no index can restrict the range (arity mismatch, unindexable arity):
  // the compiled loop then sweeps the full domain.
  std::optional<CandidateSource> MakeCandidate(
      const Formula& atom, std::size_t var,
      const std::vector<std::size_t>& shadowed) {
    CandidateSource src;
    src.relation = atom.relation_name();
    const Relation* rel =
        db_.HasRelation(src.relation) ? &db_.relation(src.relation) : nullptr;
    if (rel != nullptr &&
        (atom.terms().size() != rel->arity() || rel->arity() == 0 ||
         rel->arity() > Relation::kMaxIndexedColumns)) {
      return std::nullopt;
    }
    std::vector<std::size_t> probe_columns;
    bool has_target = false;
    for (std::size_t i = 0; i < atom.terms().size(); ++i) {
      const Term& t = atom.terms()[i];
      CandidateColumn column;
      if (t.is_value()) {
        column.role = CandidateColumn::Role::kConst;
        column.value = t.value();
      } else if (t.variable_id() == var) {
        column.role = CandidateColumn::Role::kTarget;
        column.var = var;
        has_target = true;
      } else if (IsBound(t.variable_id()) &&
                 std::find(shadowed.begin(), shadowed.end(),
                           t.variable_id()) == shadowed.end()) {
        column.role = CandidateColumn::Role::kBoundVar;
        column.var = t.variable_id();
      } else {
        column.role = CandidateColumn::Role::kWild;
        column.var = t.variable_id();
      }
      if (column.role == CandidateColumn::Role::kConst ||
          column.role == CandidateColumn::Role::kBoundVar) {
        src.probe_mask |= Relation::Mask{1} << i;
        probe_columns.push_back(i);
      }
      src.columns.push_back(std::move(column));
    }
    if (rel == nullptr) {
      // Absent relation: the candidate set is statically empty — the
      // strongest restriction there is.
      src.est_matches = 0.0;
      return src;
    }
    if (!has_target) return std::nullopt;
    src.est_matches = EstimateMatches(rel->Stats(), probe_columns);
    return src;
  }

  // The cost-cheapest eligible candidate (ties keep collection order).
  std::optional<CandidateSource> PickCandidate(
      const std::vector<CandidateAtom>& atoms, std::size_t var) {
    std::optional<CandidateSource> best;
    for (const CandidateAtom& c : atoms) {
      std::optional<CandidateSource> src =
          MakeCandidate(*c.atom, var, c.shadowed);
      if (!src) continue;
      if (!best || src->est_matches < best->est_matches) {
        best = std::move(src);
      }
    }
    return best;
  }

  // An output-loop level for free-variable `var` of an enumerate plan:
  // restricted by the cheapest required atom of the whole formula, probing
  // on earlier output columns (already bound) and formula constants.
  PlanNodePtr PlanOutput(const Formula& formula, std::size_t var) {
    auto node = std::make_unique<PlanNode>();
    node->op = PlanNode::Op::kOutput;
    node->var = var;
    if (IsBound(var)) {
      node->repeated_output = true;
      return node;
    }
    std::vector<CandidateAtom> atoms;
    std::vector<std::size_t> shadowed;
    CollectRequired(formula, var, &shadowed, &atoms);
    node->candidates = PickCandidate(atoms, var);
    Bind(var);
    return node;
  }

 private:
  const Database& db_;
  double domain_size_;
  std::vector<char> bound_;
};

std::string FormatEstimate(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3g", value);
  return buffer;
}

}  // namespace

QueryPlan BuildQueryPlan(const Formula& formula,
                         const std::vector<std::size_t>& free_variables,
                         std::size_t variable_count,
                         std::vector<std::string> variable_names,
                         const Database& db, bool enumerate) {
  QueryPlan plan;
  plan.enumerate = enumerate;
  plan.free_variables = free_variables;
  plan.variable_count = variable_count;
  plan.variable_names = std::move(variable_names);

  Planner planner(db, variable_count);
  if (!enumerate) {
    // Membership mode: every output column is an input binding.
    for (std::size_t var : free_variables) planner.Bind(var);
    plan.root = planner.Plan(formula);
    return plan;
  }
  // Enumerate mode: a loop level per output column (outermost first),
  // wrapping the formula plan. Column order is the answer-emission order,
  // so it is fixed; only each level's candidate restriction is chosen.
  std::vector<PlanNodePtr> loops;
  for (std::size_t var : free_variables) {
    loops.push_back(planner.PlanOutput(formula, var));
  }
  PlanNodePtr body = planner.Plan(formula);
  for (auto it = loops.rbegin(); it != loops.rend(); ++it) {
    (*it)->children.push_back(std::move(body));
    body = std::move(*it);
  }
  plan.root = std::move(body);
  return plan;
}

namespace {

std::string VariableName(const std::vector<std::string>& names,
                         std::size_t var) {
  if (var < names.size() && !names[var].empty()) return names[var];
  return "x" + std::to_string(var);
}

std::string TermText(const Term& term,
                     const std::vector<std::string>& names) {
  return term.is_variable() ? VariableName(names, term.variable_id())
                            : term.value().ToString();
}

std::string CandidateText(const CandidateSource& src,
                          const std::vector<std::string>& names) {
  std::string out = "candidates " + src.relation + "(";
  for (std::size_t i = 0; i < src.columns.size(); ++i) {
    if (i > 0) out += ", ";
    const CandidateColumn& col = src.columns[i];
    switch (col.role) {
      case CandidateColumn::Role::kConst:
        out += col.value.ToString();
        break;
      case CandidateColumn::Role::kBoundVar:
        out += VariableName(names, col.var);
        break;
      case CandidateColumn::Role::kTarget:
        out += "*" + VariableName(names, col.var);
        break;
      case CandidateColumn::Role::kWild:
        out += "_";
        break;
    }
  }
  out += ")";
  char mask[32];
  std::snprintf(mask, sizeof(mask), " mask=0x%llx",
                static_cast<unsigned long long>(src.probe_mask));
  out += mask;
  out += " est=" + FormatEstimate(src.est_matches);
  return out;
}

void AppendNode(const PlanNode& node, const std::vector<std::string>& names,
                int depth, std::string* out) {
  out->append(static_cast<std::size_t>(depth) * 2, ' ');
  switch (node.op) {
    case PlanNode::Op::kTrue:
      *out += "true\n";
      return;
    case PlanNode::Op::kFalse:
      *out += "false\n";
      return;
    case PlanNode::Op::kAtomCheck: {
      *out += "check " + node.relation + "(";
      for (std::size_t i = 0; i < node.terms.size(); ++i) {
        if (i > 0) *out += ", ";
        *out += TermText(node.terms[i], names);
      }
      *out += ") est=" + FormatEstimate(node.est_matches) + "\n";
      return;
    }
    case PlanNode::Op::kEquals:
      *out += TermText(node.terms[0], names) + " = " +
              TermText(node.terms[1], names) + "\n";
      return;
    case PlanNode::Op::kNot:
    case PlanNode::Op::kAnd:
    case PlanNode::Op::kOr:
    case PlanNode::Op::kImplies: {
      const char* name = node.op == PlanNode::Op::kNot      ? "not"
                         : node.op == PlanNode::Op::kAnd    ? "and"
                         : node.op == PlanNode::Op::kOr     ? "or"
                                                            : "implies";
      *out += std::string(name) + " cost=" + FormatEstimate(node.cost) + "\n";
      break;
    }
    case PlanNode::Op::kExists:
    case PlanNode::Op::kForall: {
      *out += node.op == PlanNode::Op::kExists ? "exists " : "forall ";
      *out += VariableName(names, node.var) + ": ";
      *out += node.candidates ? CandidateText(*node.candidates, names)
                              : "domain scan";
      *out += " cost=" + FormatEstimate(node.cost) + "\n";
      break;
    }
    case PlanNode::Op::kOutput: {
      *out += "output " + VariableName(names, node.var) + ": ";
      if (node.repeated_output) {
        *out += "repeated column\n";
      } else if (node.candidates) {
        *out += CandidateText(*node.candidates, names) + " (domain order)\n";
      } else {
        *out += "domain scan\n";
      }
      break;
    }
  }
  for (const PlanNodePtr& child : node.children) {
    AppendNode(*child, names, depth + 1, out);
  }
}

}  // namespace

std::string QueryPlan::ToString() const {
  std::string out = enumerate ? "plan [enumerate]\n" : "plan [membership]\n";
  if (root != nullptr) AppendNode(*root, variable_names, 1, &out);
  return out;
}

}  // namespace plan
}  // namespace zeroone

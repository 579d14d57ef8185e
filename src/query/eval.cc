#include "query/eval.h"

#include <cassert>
#include <map>

#include "common/cancel.h"
#include "data/valuation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/cache.h"
#include "plan/compiler.h"
#include "plan/mode.h"
#include "plan/vm.h"

namespace zeroone {

namespace {

Value ResolveTerm(const Term& term, const Environment& env) {
  if (term.is_value()) return term.value();
  assert(term.variable_id() < env.size() && env[term.variable_id()] &&
         "unbound variable during evaluation");
  return *env[term.variable_id()];
}

// The oracle's evaluation context: quantifiers range over `domain` in full.
struct EvalContext {
  const Database& db;
  const std::vector<Value>& domain;
};

bool Eval(const Formula& formula, const EvalContext& ctx, Environment* env) {
  switch (formula.kind()) {
    case Formula::Kind::kTrue:
      return true;
    case Formula::Kind::kFalse:
      return false;
    case Formula::Kind::kAtom: {
      ZO_COUNTER_INC("eval.atom_probes");
      if (!ctx.db.HasRelation(formula.relation_name())) return false;
      const Relation& rel = ctx.db.relation(formula.relation_name());
      assert(formula.terms().size() == rel.arity() &&
             "atom arity mismatch");
      // Resolve into a small stack-backed buffer: membership probing is
      // allocation-free for the common short arities.
      Value stack_values[8];
      std::vector<Value> heap_values;
      Value* values = stack_values;
      if (formula.terms().size() > 8) {
        heap_values.resize(formula.terms().size());
        values = heap_values.data();
      }
      for (std::size_t i = 0; i < formula.terms().size(); ++i) {
        values[i] = ResolveTerm(formula.terms()[i], *env);
      }
      return rel.Contains(values);
    }
    case Formula::Kind::kEquals:
      return ResolveTerm(formula.left(), *env) ==
             ResolveTerm(formula.right(), *env);
    case Formula::Kind::kNot:
      return !Eval(*formula.children()[0], ctx, env);
    case Formula::Kind::kAnd:
      for (const FormulaPtr& child : formula.children()) {
        if (!Eval(*child, ctx, env)) return false;
      }
      return true;
    case Formula::Kind::kOr:
      for (const FormulaPtr& child : formula.children()) {
        if (Eval(*child, ctx, env)) return true;
      }
      return false;
    case Formula::Kind::kImplies:
      return !Eval(*formula.children()[0], ctx, env) ||
             Eval(*formula.children()[1], ctx, env);
    case Formula::Kind::kExists: {
      std::size_t var = formula.bound_variable();
      if (var >= env->size()) env->resize(var + 1);
      std::optional<Value> saved = (*env)[var];
      bool result = false;
      for (Value v : ctx.domain) {
        (*env)[var] = v;
        if (Eval(*formula.children()[0], ctx, env)) {
          result = true;
          break;
        }
      }
      (*env)[var] = saved;
      return result;
    }
    case Formula::Kind::kForall: {
      std::size_t var = formula.bound_variable();
      if (var >= env->size()) env->resize(var + 1);
      std::optional<Value> saved = (*env)[var];
      bool result = true;
      for (Value v : ctx.domain) {
        (*env)[var] = v;
        if (!Eval(*formula.children()[0], ctx, env)) {
          result = false;
          break;
        }
      }
      (*env)[var] = saved;
      return result;
    }
  }
  return false;
}

// Fetches (or compiles) the plan for `query`. Caching happens only under a
// plan scope (installed by the svc layer around read commands): the scope
// key carries the session version, so a cached plan is only ever replayed
// against databases of the version it was compiled for. Without a scope,
// compilation is fresh per call — O(|formula|), cheap next to evaluation.
std::shared_ptr<const plan::CompiledQuery> PlanFor(const Query& query,
                                                   const Database& db,
                                                   bool enumerate) {
  const std::string* scope = plan::CurrentPlanScope();
  if (scope == nullptr) {
    return std::make_shared<plan::CompiledQuery>(plan::CompileFormulaQuery(
        *query.formula(), query.free_variables(), query.variable_count(),
        query.variable_names(), db, enumerate));
  }
  std::string key = *scope;
  key += '\x1f';
  key += enumerate ? 'e' : 'm';
  key += '\x1f';
  key += query.ToString();
  plan::PlanCache& cache = plan::PlanCache::Global();
  if (auto cached = cache.Get(key)) return cached;
  auto compiled = std::make_shared<plan::CompiledQuery>(
      plan::CompileFormulaQuery(*query.formula(), query.free_variables(),
                                query.variable_count(), query.variable_names(),
                                db, enumerate));
  cache.Put(key, compiled);
  return compiled;
}

}  // namespace

bool EvaluateFormula(const Formula& formula, const Database& db,
                     const std::vector<Value>& domain, Environment* env) {
  EvalContext ctx{db, domain};
  return Eval(formula, ctx, env);
}

std::string ExplainQueryPlan(const Query& query, const Database& db) {
  // Always the enumerate-mode plan: that is what EvaluateQuery runs.
  return plan::CompileFormulaQuery(*query.formula(), query.free_variables(),
                                   query.variable_count(),
                                   query.variable_names(), db,
                                   /*enumerate=*/true)
      .explain;
}

bool EvaluateMembership(const Query& query, const Database& db,
                        const Tuple& tuple) {
  return EvaluateMembership(query, db, tuple, db.ActiveDomain());
}

bool EvaluateMembership(const Query& query, const Database& db,
                        const Tuple& tuple,
                        const std::vector<Value>& domain) {
  return PreparedMembership(query, db)(db, tuple, domain);
}

PreparedMembership::PreparedMembership(const Query& query, const Database& db)
    : query_(query) {
  if (plan::plan_mode() == plan::PlanMode::kCompiled) {
    compiled_ = PlanFor(query, db, /*enumerate=*/false);
  }
}

bool PreparedMembership::operator()(const Database& db, const Tuple& tuple,
                                    const std::vector<Value>& domain) const {
  assert(tuple.arity() == query_.arity() && "membership tuple arity mismatch");
  ZO_COUNTER_INC("eval.membership_checks");
  Environment env(query_.variable_count());
  for (std::size_t i = 0; i < tuple.arity(); ++i) {
    std::size_t var = query_.free_variables()[i];
    // Repeated output variables must agree.
    if (env[var] && *env[var] != tuple[i]) return false;
    env[var] = tuple[i];
  }
  if (compiled_ != nullptr) {
    std::vector<Value> inputs;
    inputs.reserve(compiled_->program.input_vars.size());
    for (std::size_t var : compiled_->program.input_vars) {
      inputs.push_back(*env[var]);
    }
    return plan::ExecuteMembership(compiled_->program, db, domain, inputs);
  }
  return EvaluateFormula(*query_.formula(), db, domain, &env);
}

namespace {

// Enumerates assignments of the free variables from `column` on over the
// domain, collecting satisfying tuples in domain order. Each first-column
// value polls the CancelToken, so a deadline stops the oracle too.
void EnumerateAnswers(const Query& query, const Database& db,
                      const std::vector<Value>& domain, std::size_t column,
                      Environment* env, std::vector<Value>* current,
                      std::vector<Tuple>* out) {
  if (column == query.arity()) {
    ZO_COUNTER_INC("eval.tuple_probes");
    if (EvaluateFormula(*query.formula(), db, domain, env)) {
      out->push_back(Tuple(*current));
    }
    return;
  }
  std::size_t var = query.free_variables()[column];
  std::optional<Value> pre_bound = (*env)[var];
  if (pre_bound) {
    // A repeated output variable already bound by an earlier column.
    current->push_back(*pre_bound);
    EnumerateAnswers(query, db, domain, column + 1, env, current, out);
    current->pop_back();
    return;
  }
  for (Value v : domain) {
    if (column == 0 && CancellationRequested()) break;
    (*env)[var] = v;
    current->push_back(v);
    EnumerateAnswers(query, db, domain, column + 1, env, current, out);
    current->pop_back();
  }
  (*env)[var] = std::nullopt;
}

}  // namespace

std::vector<Tuple> EvaluateQuery(const Query& query, const Database& db) {
  ZO_TRACE_SPAN("EvaluateQuery");
  ZO_COUNTER_INC("eval.queries_evaluated");
  std::vector<Value> domain = db.ActiveDomain();
  if (plan::plan_mode() == plan::PlanMode::kCompiled) {
    auto compiled = PlanFor(query, db, /*enumerate=*/true);
    std::vector<Tuple> answers;
    plan::ExecuteEnumerate(compiled->program, db, domain, &answers);
    return answers;
  }
  Environment env(query.variable_count());
  std::vector<Tuple> answers;
  if (query.is_boolean()) {
    if (EvaluateFormula(*query.formula(), db, domain, &env)) {
      answers.push_back(Tuple{});
    }
    return answers;
  }
  std::vector<Value> current;
  current.reserve(query.arity());
  EnumerateAnswers(query, db, domain, 0, &env, &current, &answers);
  return answers;
}

FormulaPtr ApplyValuationToFormula(const FormulaPtr& formula,
                                   const Valuation& v) {
  const Formula& f = *formula;
  switch (f.kind()) {
    case Formula::Kind::kTrue:
    case Formula::Kind::kFalse:
      return formula;
    case Formula::Kind::kAtom:
    case Formula::Kind::kEquals: {
      std::vector<Term> terms;
      terms.reserve(f.terms().size());
      bool changed = false;
      for (const Term& t : f.terms()) {
        if (t.is_value() && t.value().is_null() && v.IsBound(t.value())) {
          terms.push_back(Term::Val(v.ValueOf(t.value())));
          changed = true;
        } else {
          terms.push_back(t);
        }
      }
      if (!changed) return formula;
      if (f.kind() == Formula::Kind::kEquals) {
        return Formula::Equals(terms[0], terms[1]);
      }
      return Formula::Atom(f.relation_name(), std::move(terms));
    }
    default: {
      std::vector<FormulaPtr> children;
      children.reserve(f.children().size());
      bool changed = false;
      for (const FormulaPtr& child : f.children()) {
        FormulaPtr replaced = ApplyValuationToFormula(child, v);
        changed = changed || replaced != child;
        children.push_back(std::move(replaced));
      }
      if (!changed) return formula;
      switch (f.kind()) {
        case Formula::Kind::kNot:
          return Formula::Not(children[0]);
        case Formula::Kind::kAnd:
          return Formula::And(std::move(children));
        case Formula::Kind::kOr:
          return Formula::Or(std::move(children));
        case Formula::Kind::kImplies:
          return Formula::Implies(children[0], children[1]);
        case Formula::Kind::kExists:
          return Formula::Exists(f.bound_variable(), children[0]);
        case Formula::Kind::kForall:
          return Formula::Forall(f.bound_variable(), children[0]);
        default:
          return formula;
      }
    }
  }
}

std::vector<Tuple> NaiveEvaluate(const Query& query, const Database& db) {
  return EvaluateQuery(query, db);
}

bool NaiveMembership(const Query& query, const Database& db,
                     const Tuple& tuple) {
  return EvaluateMembership(query, db, tuple);
}

std::vector<Tuple> NaiveEvaluateViaBijection(const Query& query,
                                             const Database& db) {
  Valuation v = MakeBijectiveValuation(db);
  Database complete = v.Apply(db);
  std::vector<Tuple> raw = EvaluateQuery(query, complete);
  // Invert v on every component of every answer.
  std::map<Value, Value> inverse;
  for (const auto& [null, constant] : v.assignment()) {
    inverse[constant] = null;
  }
  std::vector<Tuple> answers;
  answers.reserve(raw.size());
  for (const Tuple& t : raw) {
    std::vector<Value> values;
    values.reserve(t.arity());
    for (Value value : t) {
      auto it = inverse.find(value);
      values.push_back(it == inverse.end() ? value : it->second);
    }
    answers.push_back(Tuple(std::move(values)));
  }
  return answers;
}

}  // namespace zeroone

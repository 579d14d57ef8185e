#include "data/homomorphism.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <vector>

#include "common/cancel.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/pool.h"
#include "plan/mode.h"

namespace zeroone {

namespace {

// One tuple of `from` viewed as a pattern to embed into `to`.
struct PatternTuple {
  const Relation* target;  // The same-name relation in `to`, if any.
  Relation::Row row;
};

std::vector<PatternTuple> PatternsOf(const Database& from,
                                     const Database& to) {
  std::vector<PatternTuple> patterns;
  for (const auto& [name, rel] : from.relations()) {
    const Relation* target =
        to.HasRelation(name) ? &to.relation(name) : nullptr;
    for (std::size_t i = 0; i < rel.size(); ++i) {
      patterns.push_back(PatternTuple{target, rel.row(i)});
    }
  }
  return patterns;
}

// Backtracking embedding of the tuples of `from` into `to`, extending a
// null mapping (constants must match exactly). The mapping is a flat array
// keyed by null id — nulls are densely interned, so this replaces the
// historical std::map<Value, Value> with O(1) unordered lookups.
//
// Under compiled plans, patterns are chosen most-constrained-first (most
// columns already fixed by constants or bound nulls) and candidates come
// from a hash probe on those columns. The oracle (PlanMode::kInterpret)
// runs the plain algorithm: static pattern order, full candidate scans.
class Searcher {
 public:
  using MatchFn = std::function<bool(const std::map<Value, Value>&)>;

  Searcher(const Database& from, const Database& to, const MatchFn& on_match)
      : patterns_(PatternsOf(from, to)),
        used_(patterns_.size(), 0),
        from_nulls_(from.Nulls()),
        on_match_(on_match),
        indexed_(plan::plan_mode() == plan::PlanMode::kCompiled) {
    std::uint32_t slots = 0;
    for (Value null : from_nulls_) slots = std::max(slots, null.id() + 1);
    bound_.assign(slots, 0);
    image_.resize(slots);
  }

  // Per-worker clone for the parallel root sweep: copies the (all-unbound)
  // search state, substituting the worker's wrapped match callback.
  Searcher(const Searcher& other, const MatchFn& on_match)
      : patterns_(other.patterns_),
        used_(other.used_),
        from_nulls_(other.from_nulls_),
        on_match_(on_match),
        indexed_(other.indexed_),
        bound_(other.bound_),
        image_(other.image_) {}

  // Runs the search; calls on_match per complete homomorphism. on_match
  // returning false stops the search; Run then returns true.
  //
  // The root level (depth 0) is the parallel axis: its candidate rows are
  // materialized once and swept in morsels, each worker running the full
  // backtracking search under its fixed root candidate. First-match
  // semantics stay deterministic via a minimal-stop-index protocol —
  // on_match results are serialized under a mutex, a match at candidate
  // index i that asks to stop publishes i as the stop bound, matches at
  // indices >= the bound are suppressed, and lower indices keep exploring
  // (and may lower the bound further). The surviving stop is the one the
  // serial left-to-right sweep would have reached first, so FindHomomorphism
  // and ComputeCore return byte-identical results at any thread count; the
  // published bound doubles as the early-exit broadcast that drains the
  // remaining morsels. docs/parallelism.md has the full argument.
  bool Run() {
    if (patterns_.empty()) return SearchStep(0);
    std::size_t root = indexed_ ? PickMostConstrained() : 0;
    const PatternTuple& pattern = patterns_[root];
    if (pattern.target == nullptr) return false;
    const Relation& target = *pattern.target;
    if (target.arity() != pattern.row.arity()) return false;

    // Root candidate positions, mirroring SearchStep's probe-or-scan (at
    // depth 0 only constants can be fixed).
    Relation::Mask mask = 0;
    std::vector<Value> key;
    if (indexed_ && target.arity() > 0 &&
        target.arity() <= Relation::kMaxIndexedColumns) {
      for (std::size_t i = 0; i < pattern.row.arity(); ++i) {
        Value v = pattern.row[i];
        if (v.is_constant()) {
          mask |= Relation::Mask{1} << i;
          key.push_back(v);
        }
      }
    }
    std::vector<std::uint32_t> positions;
    if (mask != 0) {
      Relation::RowIdSpan span = target.Probe(mask, key);
      positions.assign(span.begin(), span.end());
    } else {
      positions.resize(target.size());
      std::iota(positions.begin(), positions.end(), 0);
    }

    par::ForPlan morsels =
        par::PlanMorsels(positions.size(), par::ForOptions{});
    if (morsels.workers <= 1) return SearchStep(0);

    std::mutex mutex;
    // First candidate index whose match stopped the search; indices at or
    // beyond it are settled and need no further exploration.
    std::atomic<std::size_t> stop_before{positions.size()};
    bool stopped = false;
    std::vector<MatchFn> wrappers(morsels.workers);
    std::vector<std::unique_ptr<Searcher>> workers(morsels.workers);
    std::vector<std::size_t> current(morsels.workers, 0);
    par::ParallelFor(morsels, [&](const par::Morsel& m, std::size_t w) {
      if (workers[w] == nullptr) {
        wrappers[w] = [&, w](const std::map<Value, Value>& h) {
          std::lock_guard<std::mutex> lock(mutex);
          if (current[w] >= stop_before.load(std::memory_order_relaxed)) {
            return false;  // A lower index already stopped the search.
          }
          bool keep = on_match_(h);
          if (!keep) {
            stop_before.store(current[w], std::memory_order_release);
            stopped = true;
          }
          return keep;
        };
        workers[w] = std::unique_ptr<Searcher>(
            new Searcher(*this, wrappers[w]));
      }
      for (std::size_t i = m.begin; i < m.end; ++i) {
        if (CancellationRequested()) return false;
        // Morsel indices ascend, so the first settled index drains the
        // rest of the morsel too.
        if (i >= stop_before.load(std::memory_order_acquire)) break;
        current[w] = i;
        workers[w]->RunRooted(root, target.row(positions[i]));
      }
      return true;
    });
    return stopped;
  }

 private:
  // Runs the search with pattern `root` pre-assigned to `candidate` (the
  // parallel driver's per-root-candidate entry). Returns true iff on_match
  // requested a stop within this subtree.
  bool RunRooted(std::size_t root, Relation::Row candidate) {
    used_[root] = 1;
    bool stop = TryCandidate(patterns_[root], candidate, 0);
    used_[root] = 0;
    return stop;
  }

  bool Bound(Value null) const { return bound_[null.id()] != 0; }

  // The unused pattern with the most columns already fixed (constants or
  // bound nulls); ties break toward the original order.
  std::size_t PickMostConstrained() const {
    std::size_t best = patterns_.size();
    std::size_t best_fixed = 0;
    for (std::size_t p = 0; p < patterns_.size(); ++p) {
      if (used_[p]) continue;
      std::size_t fixed = 0;
      for (Value v : patterns_[p].row) {
        if (v.is_constant() || Bound(v)) ++fixed;
      }
      if (best == patterns_.size() || fixed > best_fixed) {
        best = p;
        best_fixed = fixed;
      }
    }
    return best;
  }

  // Tries one candidate row for `pattern`; recurses on success. Returns
  // true iff the whole search should stop.
  bool TryCandidate(const PatternTuple& pattern, Relation::Row candidate,
                    std::size_t depth) {
    ZO_COUNTER_INC("homomorphism.search_nodes");
    // Deterministic fault inside the search (the standing datalog/hom fault
    // coverage item): cancels the current token, which stops every worker's
    // search and drives the caller's discard path.
    if (ZO_FAULT_POINT("hom.search.cancel")) {
      if (CancelToken* token = CurrentCancelToken()) token->Cancel();
    }
    if (CancellationRequested()) return true;  // Stop; caller discards.
    std::vector<Value> newly_bound;
    bool ok = true;
    for (std::size_t i = 0; i < candidate.arity() && ok; ++i) {
      Value v = pattern.row[i];
      if (v.is_constant()) {
        ok = v == candidate[i];
        continue;
      }
      if (Bound(v)) {
        ok = image_[v.id()] == candidate[i];
      } else {
        bound_[v.id()] = 1;
        image_[v.id()] = candidate[i];
        newly_bound.push_back(v);
      }
    }
    bool stop = ok && SearchStep(depth + 1);
    for (Value v : newly_bound) bound_[v.id()] = 0;
    return stop;
  }

  bool SearchStep(std::size_t depth) {
    if (depth == patterns_.size()) {
      std::map<Value, Value> mapping;
      for (Value null : from_nulls_) {
        if (Bound(null)) mapping.emplace(null, image_[null.id()]);
      }
      return !on_match_(mapping);
    }
    std::size_t p = indexed_ ? PickMostConstrained() : depth;
    const PatternTuple& pattern = patterns_[p];
    if (pattern.target == nullptr) return false;
    const Relation& target = *pattern.target;
    if (target.arity() != pattern.row.arity()) return false;

    used_[p] = 1;
    bool stop = false;
    Relation::Mask mask = 0;
    std::vector<Value> key;
    if (indexed_ && target.arity() > 0 &&
        target.arity() <= Relation::kMaxIndexedColumns) {
      for (std::size_t i = 0; i < pattern.row.arity(); ++i) {
        Value v = pattern.row[i];
        if (v.is_constant()) {
          mask |= Relation::Mask{1} << i;
          key.push_back(v);
        } else if (Bound(v)) {
          mask |= Relation::Mask{1} << i;
          key.push_back(image_[v.id()]);
        }
      }
    }
    if (mask != 0) {
      for (std::uint32_t pos : target.Probe(mask, key)) {
        if (TryCandidate(pattern, target.row(pos), depth)) {
          stop = true;
          break;
        }
      }
    } else {
      for (std::size_t pos = 0; pos < target.size(); ++pos) {
        if (TryCandidate(pattern, target.row(pos), depth)) {
          stop = true;
          break;
        }
      }
    }
    used_[p] = 0;
    return stop;
  }

  const std::vector<PatternTuple> patterns_;
  std::vector<char> used_;
  const std::vector<Value> from_nulls_;
  const MatchFn& on_match_;
  const bool indexed_;
  // Flat mapping keyed by null id: image_[id] is meaningful iff bound_[id].
  std::vector<char> bound_;
  std::vector<Value> image_;
};

Database ApplyMapping(const Database& db,
                      const std::map<Value, Value>& mapping) {
  Database image(db.schema());
  for (const auto& [name, rel] : db.relations()) {
    Relation::Builder out(name, rel.arity());
    std::vector<Value> values(rel.arity());
    for (Relation::Row tuple : rel) {
      for (std::size_t i = 0; i < values.size(); ++i) {
        auto it = mapping.find(tuple[i]);
        values[i] = it == mapping.end() ? tuple[i] : it->second;
      }
      out.AddRow(values.data());
    }
    image.mutable_relation(name) = std::move(out).Build();
  }
  return image;
}

}  // namespace

std::optional<std::map<Value, Value>> FindHomomorphism(const Database& from,
                                                       const Database& to) {
  ZO_TRACE_SPAN("FindHomomorphism");
  ZO_COUNTER_INC("homomorphism.searches");
  std::optional<std::map<Value, Value>> found;
  Searcher::MatchFn on_match = [&](const std::map<Value, Value>& h) {
    found = h;
    return false;  // First homomorphism suffices.
  };
  Searcher(from, to, on_match).Run();
  return found;
}

bool AreHomomorphicallyEquivalent(const Database& a, const Database& b) {
  return FindHomomorphism(a, b).has_value() &&
         FindHomomorphism(b, a).has_value();
}

Database ComputeCore(const Database& db) {
  ZO_TRACE_SPAN("ComputeCore");
  Database current = db;
  bool reduced = true;
  while (reduced) {
    reduced = false;
    ZO_COUNTER_INC("homomorphism.core_folding_rounds");
    // Search for an endomorphism whose image is a proper sub-instance.
    Database smaller;
    Searcher::MatchFn on_match = [&](const std::map<Value, Value>& h) {
      Database image = ApplyMapping(current, h);
      if (image != current) {
        smaller = std::move(image);
        reduced = true;
        return false;  // Stop: fold and restart.
      }
      return true;  // An automorphism; keep searching.
    };
    Searcher(current, current, on_match).Run();
    if (reduced) current = std::move(smaller);
  }
  return current;
}

}  // namespace zeroone

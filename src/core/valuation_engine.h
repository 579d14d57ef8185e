#ifndef ZEROONE_CORE_VALUATION_ENGINE_H_
#define ZEROONE_CORE_VALUATION_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/bigint.h"
#include "data/database.h"
#include "data/valuation_image.h"
#include "query/eval.h"
#include "query/query.h"

namespace zeroone {

// The per-valuation engine under every exponential loop of core/: µ^k and
// its variants, the Theorem 3 partition polynomial, the bounded searches
// behind certain/possible answers, Sep and the support table, the
// preference and OWA measures, sampling and the Theorem 8 search leaf.
// Exact µ is #P-hard (Props 5/6), so these loops stay exponential; the
// engine cuts the number of points and the cost of each:
// - v(D) is a ValuationImage built once per enumeration (once per worker
//   in parallel loops) and moved from point to point;
// - the query's plan is resolved once per enumeration (QueryWitness);
// - points are flat value arrays run by one of two walks: the odometer
//   over every point of a domain (ForEachPoint), or one point per orbit
//   under the permutations fixing A (ForEachOrbitPoint), which is all the
//   partition polynomial and the bounded searches need;
// - counts are machine-word tallies, folded into BigInt once.
//
// Oracle gate: under plan::PlanMode::kInterpret the image is materialized
// with Valuation::Apply at every point (ValuationImage::Mode::kMaterialize),
// and the bounded searches walk every point of their range with the
// odometer, so the reference path keeps checking the image and the orbit
// walk against the definitions.

// The image mode the current plan mode asks for.
ValuationImage::Mode EngineImageMode();

// v(ā) ∈ Q(v(D)) at the image's current point: the one witness check of
// every loop. The plan is resolved at construction; a formula that mentions
// nulls is instead rewritten under the point at every call. Thread-safe.
class QueryWitness {
 public:
  QueryWitness(const Query& query, const Database& db);

  bool operator()(const ValuationImage& image, const Tuple& tuple) const;

 private:
  Query query_;
  bool formula_has_nulls_;
  PreparedMembership membership_;
};

// |Supp| and |V| of one enumeration, as machine words.
struct PointTally {
  std::uint64_t support = 0;
  std::uint64_t total = 0;
};

// The shared counter: visits every point of domain^(positions ≥ from) of
// `*point` (ForEachPoint), assigns it to `image`, and tallies the points
// `witness` accepts. Advances support.valuations_enumerated and
// support.witnesses_found by the tallies.
PointTally CountWitnessedPoints(
    ValuationImage* image, std::vector<Value>* point, std::size_t from,
    const std::vector<Value>& domain,
    const std::function<bool(const ValuationImage&)>& witness);

// One shard of an orbit walk: the work items whose index is `index` modulo
// `count`.
struct OrbitShard {
  std::size_t index = 0;
  std::size_t count = 1;
};

// The orbit walk of the proof of Theorem 3. With m = point->size() nulls, a
// prefix A of a distinct constants and at least m constants `fresh`
// outside A, visits one point of each orbit of (A ∪ fresh)^m under the
// permutations of Const that fix A: for each kernel partition ρ of the
// nulls and injective partial map σ from ρ's blocks into A, the point that
// sends the blocks σ leaves out to fresh[0], fresh[1], … in order of first
// appearance. That is Σ_t S(m,t)·Σ_j C(t,j)·(a)_j points (1 540 for
// m = 4, a = 5, against (a+m)^m = 6 561). A generic witness that fixes A
// is constant on each orbit, so these points decide every search and count
// the bounded range decides. The walk is depth-first over the nulls, so
// neighbouring points differ in their last nulls. `*point` is updated in
// place; `visit(f)` sees each point with its free-block count f. Polls the
// thread's CancelToken and the core.valuation.cancel fault point before
// each visit. With a shard, visits only the points of that shard's work
// items (subtrees of the walk, dealt round-robin in walk order; the shards
// of one count cover each point exactly once). Advances
// support.partitions_enumerated (once per ρ, at its point with σ = ∅) and
// support.partition_maps_enumerated (once per point). Returns false iff a
// visit returned false or the walk was cancelled.
bool ForEachOrbitPoint(std::vector<Value>* point,
                       const std::vector<Value>& prefix,
                       const std::vector<Value>& fresh,
                       const std::function<bool(std::size_t)>& visit,
                       OrbitShard shard = {});

// The bounded search behind certain and possible answers, Sep and the
// support table (the argument of the proof of Theorem 8) for (Q, D) and
// the inspected `tuples`: points of the relevant nulls (of D, of the tuples
// and of Q's formula) into A ∪ A_m, with A = C ∪ Const(D) ∪ the tuples'
// constants and A_m = m enumeration constants outside A. A generic witness
// of those tuples is invariant under the permutations of Const that fix A,
// so production visits one point per orbit (ForEachOrbitPoint); under the
// oracle gate the ForEachPoint odometer visits every point, (a+m)^m of
// them, counted in support.valuations_enumerated. Calls `visit` with v(D)
// at each point; `visit` stops the search by returning false. Returns
// false iff the search was stopped or cancelled.
bool ForEachBoundedPoint(
    const Query& query, const Database& db, const std::vector<Tuple>& tuples,
    const std::function<bool(const ValuationImage&)>& visit);

// A machine-word tally as a BigInt.
BigInt TallyToBigInt(std::uint64_t tally);

}  // namespace zeroone

#endif  // ZEROONE_CORE_VALUATION_ENGINE_H_

#ifndef ZEROONE_CORE_GENERIC_INSTANCE_H_
#define ZEROONE_CORE_GENERIC_INSTANCE_H_

#include <functional>
#include <vector>

#include "common/bigint.h"
#include "common/polynomial.h"
#include "common/rational.h"
#include "data/database.h"
#include "data/valuation_image.h"

namespace zeroone {

// The measure machinery below Theorem 1/3 needs nothing from a query except
// genericity — it never looks at syntax. This header captures that minimal
// contract: an instance is (nulls, prefix A = C ∪ Const(D), witness
// predicate), where the witness decides v(ā) ∈ Q(v(D)) given the valuation
// image of the current point (core/valuation_engine.h). Both the first-order front end (core/support.h)
// and non-FO formalisms (datalog, src/datalog/) lower themselves to this
// form, realizing the paper's point that the 0–1 law holds far beyond FO.
struct GenericInstance {
  // The relevant nulls: Null(D) ∪ nulls of the inspected tuple.
  std::vector<Value> nulls;
  // The enumeration prefix A = C ∪ Const(D), deduplicated constants.
  std::vector<Value> prefix;
  // witness(image) ⇔ v(ā) ∈ Q(v(D)) for the image's current point v, with
  // v(D) = image.database() and v(ā) = image.Apply(ā). Must be generic:
  // invariant under permutations of Const fixing `prefix`.
  std::function<bool(const ValuationImage&)> witness;
};

// |Supp^k| and |V^k| by enumeration over the generic instance.
struct GenericSupportCount {
  BigInt support;
  BigInt total;
};
GenericSupportCount CountGenericSupport(const GenericInstance& instance,
                                        const Database& db, std::size_t k);

// Parallel variant: partitions the valuation space on the first null's
// value and counts shards on at most `threads` pool workers, one valuation
// image per morsel. Results are identical to the sequential version —
// counting is associative — and the witness closure is invoked
// concurrently, so it must be thread-safe; every witness built by this
// library is a pure function of its arguments. With 0 nulls or
// threads <= 1 this falls back to the sequential path.
GenericSupportCount CountGenericSupportParallel(const GenericInstance& instance,
                                                const Database& db,
                                                std::size_t k,
                                                std::size_t threads);

// µ^k as a rational.
Rational GenericMuK(const GenericInstance& instance, const Database& db,
                    std::size_t k);

// |Supp^k| as a closed-form polynomial in k via the partition method
// (see core/support_polynomial.h for the derivation); exact for
// k ≥ |prefix|. Walks the Σ_t S(m,t)·Σ_j C(t,j)·(a)_j (ρ, σ) orbit points
// of ForEachOrbitPoint for m nulls and a prefix constants (1 540 for
// m = 4, a = 5), sharded on at most par::par_threads() pool workers with
// one valuation image per worker, so the witness must be thread-safe (as
// for CountGenericSupportParallel); the polynomial is byte-identical at
// every width. The walk polls the CancelToken and the
// core.valuation.cancel fault site per point; a cancelled pass returns a
// partial polynomial the token's installer discards.
struct GenericSupportPolynomial {
  Polynomial count;
  std::size_t valid_from;
};
GenericSupportPolynomial ComputeGenericSupportPolynomial(
    const GenericInstance& instance, const Database& db);

// µ = lim |Supp^k| / k^m computed from the polynomial.
Rational GenericMuLimit(const GenericInstance& instance, const Database& db);

}  // namespace zeroone

#endif  // ZEROONE_CORE_GENERIC_INSTANCE_H_

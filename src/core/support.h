#ifndef ZEROONE_CORE_SUPPORT_H_
#define ZEROONE_CORE_SUPPORT_H_

#include <cstddef>
#include <vector>

#include "common/bigint.h"
#include "common/rational.h"
#include "core/generic_instance.h"
#include "data/database.h"
#include "data/valuation.h"
#include "query/query.h"

namespace zeroone {

// Exact finite-k support computations by explicit enumeration of V^k(D)
// (Section 3.2). These are exponential in the number of nulls (k^m
// valuations) and serve as ground truth: the closed-form algorithms in
// support_polynomial.h are cross-validated against them in tests and
// benches.
//
// The enumeration {c₁, …, c_k} of Const is chosen to start with
// A = C ∪ Const(D) (query constants, then database constants), extended by
// fresh constants — the paper shows the asymptotics are independent of this
// choice, and with this choice µ^k is already enumeration-independent for
// every k ≥ |A|.

// The evaluation context shared by the finite-k measures.
struct SupportInstance {
  Query query;
  Tuple tuple;                // Arity query.arity(); may contain nulls.
  std::vector<Value> nulls;   // Null(D) ∪ nulls of ā ∪ nulls of Q's formula.
  std::vector<Value> prefix;  // A = C ∪ Const(D), deduplicated.
};

// Builds the instance for the tuple ā and query Q over D.
// Precondition: tuple.arity() == query.arity().
SupportInstance MakeSupportInstance(const Query& query, const Database& db,
                                    const Tuple& tuple);

// Lowers the first-order instance to the formalism-agnostic form of
// core/generic_instance.h (nulls + prefix + witness closure), resolving the
// query's plan once against D (core/valuation_engine.h). The returned
// object owns copies of everything it needs, so it outlives the inputs.
GenericInstance ToGenericInstance(const SupportInstance& instance,
                                  const Database& db);

// |Supp^k(Q, D, ā)| and |V^k(D)| = k^m for the given k.
// Precondition: k >= instance.prefix.size() (so that A ⊆ {c₁..c_k}) and
// k >= 1 when there are nulls.
struct SupportCount {
  BigInt support;
  BigInt total;
};
SupportCount CountSupport(const SupportInstance& instance, const Database& db,
                          std::size_t k);

// µ^k(Q, D, ā) = |Supp^k(Q,D,ā)| / |V^k(D)|.
Rational MuK(const Query& query, const Database& db, const Tuple& tuple,
             std::size_t k);

// Boolean-query convenience: µ^k(Q, D).
Rational MuK(const Query& query, const Database& db, std::size_t k);

// µ^k computed with the sharded parallel counter (bit-identical to MuK;
// see CountGenericSupportParallel). Useful when k^m is large enough to
// matter but still enumerable.
Rational MuKParallel(const Query& query, const Database& db,
                     const Tuple& tuple, std::size_t k, std::size_t threads);

// The bijective variant used in the proof of Theorem 1: the proportion of
// C-bijective valuations with range in {c₁..c_k} whose application makes
// v(ā) ∈ Q(v(D)), among all valuations in V^k(D). Both counts are returned:
// the ratio support/total is µ^k_bij relative to all of V^k, and
// support/bijective is the proportion within the bijective valuations.
struct BijectiveSupportCount {
  BigInt support;    // C-bijective valuations witnessing the query.
  BigInt bijective;  // All C-bijective valuations in V^k(D).
  BigInt total;      // |V^k(D)|.
};
BijectiveSupportCount CountBijectiveSupport(const SupportInstance& instance,
                                            const Database& db,
                                            std::size_t k);

// The alternative measure m^k of Theorem 2 (equation (1)): counts distinct
// complete databases v(D) instead of valuations. The numerator counts
// {v(D) : v ∈ Supp^k(Q,D,ā)}, the denominator {v(D) : v ∈ V^k(D)}.
Rational MK(const Query& query, const Database& db, const Tuple& tuple,
            std::size_t k);
Rational MK(const Query& query, const Database& db, std::size_t k);

// The isomorphism-type variant of the measure, after the ν^k of the
// paper's 0–1-law preliminaries (Section 2): counts *isomorphism types* of
// the outcomes v(D) — two outcomes identified when a bijection of constants
// fixing A = C ∪ Const(D) maps one onto the other — rather than the
// outcomes themselves. In Fagin's logical setting ν and µ share limits; in
// this setting they do NOT, and the paper's remark after Theorem 1 explains
// why: "at some point the number of isomorphism types stabilizes". Indeed
// ν^k becomes *constant* once k ≥ |A| + m (every type is already realized),
// so ν is a type-level measure that can be any rational even without
// constraints — a concrete illustration of how the combinatorics here
// differ from classical 0–1 laws. Cost: a canonization factor of t! per
// outcome, t = #non-A constants used.
Rational NuK(const Query& query, const Database& db, const Tuple& tuple,
             std::size_t k);
Rational NuK(const Query& query, const Database& db, std::size_t k);

}  // namespace zeroone

#endif  // ZEROONE_CORE_SUPPORT_H_

#ifndef ZEROONE_CORE_EXACT_PLAN_H_
#define ZEROONE_CORE_EXACT_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rational.h"
#include "common/status.h"
#include "constraints/constraint.h"
#include "data/database.h"
#include "query/query.h"

namespace zeroone {

// Exact plans: the one layer between the front ends (svc::Dispatcher and
// zeroone_cli) and the exact algorithms behind `certain`, `cond`, `best`,
// `bestmu`, `compare` and `muk`. For each request it picks the cheapest
// exact algorithm one of the paper's theorems justifies for the (query, Σ,
// tuple), counts the choice as `core.exact.<algorithm>`, and runs it:
//
//   command                 applies when                algorithm
//   certain                 Q ∈ Pos∀G                   naive (Cor. 3)
//   cond                    Σ only FDs                  chase (Thm. 5)
//   best, bestmu, compare   Q a UCQ                     ucq (Thm. 8, Prop. 8)
//   muk                     always                      poly (Thm. 3)
//
// Every fast path but poly additionally needs a query formula without
// nulls, and `cond` and `compare` need their tuples to be made of constants
// and nulls of D. The UCQ path also needs a DNF of at most kMaxUcqDisjuncts
// clauses: normalizing distributes ∧ over ∨, exponentially in the query.
// The poly path evaluates the Theorem 3 partition polynomial P(k) =
// |Supp^k| at k, exact for every k ≥ |C ∪ Const(D)|, which is every k `muk`
// accepts, and for every generic query (the nulls of the tuple and of the
// formula are among the m nulls it enumerates). Everything else runs the
// generic enumerators (CertainAnswers, ComputeConditionalMu, BestAnswers,
// BestMuAnswers, WeaklyDominated), which stay the definitional oracle with
// the k^m counter of MuK. The choice is made per request, never when the
// query is set.
//
// Oracle gate: under plan::PlanMode::kInterpret every request runs the
// enumerator, so the reference evaluation path (and every differential
// battery and benchmark checker that runs it) keeps comparing the fast
// paths against the definitions. ChooseExactAlgorithm and ExplainExactPlan
// ignore the gate: they name what the production path runs.

enum class ExactCommand { kCertain, kCond, kBest, kBestMu, kCompare, kMuK };

enum class ExactAlgorithm {
  kEnumerator,  // The generic enumerators (definitions, exponential).
  kNaive,       // Corollary 3: naïve evaluation.
  kChase,       // Theorem 5: chase with the FDs, then MuLimit.
  kUcq,         // Theorem 8 / Proposition 8: small-witness Sep search.
  kPoly,        // Theorem 3: the partition polynomial evaluated at k.
};

// Maps a wire/CLI command name to its exact command; false for commands
// outside this layer.
bool ParseExactCommand(const std::string& name, ExactCommand* command);

// "enumerator", "naive", "chase", "ucq", "poly": the suffix of the
// core.exact.* counter and the name in the explain line.
const char* ExactAlgorithmName(ExactAlgorithm algorithm);
// The result that justifies the algorithm, e.g. "Corollary 3".
const char* ExactAlgorithmTheorem(ExactAlgorithm algorithm);

// The largest DNF the UCQ path builds; larger UCQs run the enumerators.
constexpr std::size_t kMaxUcqDisjuncts = 64;

// Largest k `muk` accepts. The poly path costs the same at every k, but the
// oracle gate's enumerator visits k^m valuations and draws
// k − |C ∪ Const(D)| enumeration constants (the process-wide pool grows to
// the largest draw and is never reclaimed), so an unchecked k (a negative
// one reads as 2^64 − 1) would abort the process on its first
// allocation.
constexpr std::uint64_t kMaxMukK = 4096;

// The request's arguments: its tuples, each of the query's arity (one for
// cond, "(t1) (t2)" for compare, "<k> <tuple>" for muk, none for the other
// commands), and muk's k, a decimal in 1..kMaxMukK. Both front ends parse
// exact requests with ParseExactArgs, to run them and to explain them.
struct ExactArgs {
  std::vector<Tuple> tuples;
  std::size_t k = 0;
};
StatusOr<ExactArgs> ParseExactArgs(ExactCommand command, const Query& query,
                                   const std::string& args);

// The algorithm a theorem justifies for the request, from the command,
// query, Σ, D and the request's arguments alone; independent of the plan
// mode.
ExactAlgorithm ChooseExactAlgorithm(ExactCommand command, const Query& query,
                                    const ConstraintSet& constraints,
                                    const Database& db, const ExactArgs& args);

// One line, "exact: <algorithm> (<theorem>)\n", for @explain=1 and
// --explain. Same inputs as ChooseExactAlgorithm, so it is identical in
// both plan modes.
std::string ExplainExactPlan(ExactCommand command, const Query& query,
                             const ConstraintSet& constraints,
                             const Database& db, const ExactArgs& args);

// The runners. Each chooses, applies the oracle gate, counts, and runs;
// `used`, when non-null, receives the algorithm that ran. Answers are
// byte-identical to the enumerator's (tests/exact_plan_test.cc).

// (Q, D): certain answers with nulls.
std::vector<Tuple> ExactCertainAnswers(const Query& query, const Database& db,
                                       ExactAlgorithm* used = nullptr);

// Best(Q, D) over adom(D)^arity.
std::vector<Tuple> ExactBestAnswers(const Query& query, const Database& db,
                                    ExactAlgorithm* used = nullptr);

// Best_µ(Q, D).
std::vector<Tuple> ExactBestMuAnswers(const Query& query, const Database& db,
                                      ExactAlgorithm* used = nullptr);

// Support inclusion both ways: a_in_b is ā ⊴ b̄ (Supp(ā) ⊆ Supp(b̄)).
struct SupportOrder {
  bool a_in_b = false;
  bool b_in_a = false;
};
SupportOrder ExactCompare(const Query& query, const Database& db,
                          const Tuple& a, const Tuple& b,
                          ExactAlgorithm* used = nullptr);

// µ(Q|Σ,D,ā), and whether Σ is satisfiable in D (the value is 0 when it is
// not, by convention).
struct ExactConditional {
  Rational value;
  bool sigma_satisfiable = false;
};
// Fails only when cancellation stopped the chase before its fixpoint: a
// half-done chase says nothing about Σ, so it must not read as 0.
StatusOr<ExactConditional> ExactConditionalMu(
    const Query& query, const ConstraintSet& constraints, const Database& db,
    const Tuple& tuple, ExactAlgorithm* used = nullptr);

// µ^k(Q, D, ā) = |Supp^k| / k^m, byte-identical to MuK: P(k)/k^m from
// ComputeSupportPolynomial, or MuKParallel under the oracle gate, both on
// the morsel pool under par::par_threads().
// Fails when k < |C ∪ Const(D)|: the k constants would not cover the
// enumeration prefix, and the polynomial is exact only from there on.
StatusOr<Rational> ExactMuK(const Query& query, const Database& db,
                            const Tuple& tuple, std::size_t k,
                            ExactAlgorithm* used = nullptr);

}  // namespace zeroone

#endif  // ZEROONE_CORE_EXACT_PLAN_H_

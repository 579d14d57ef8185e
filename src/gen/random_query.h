#ifndef ZEROONE_GEN_RANDOM_QUERY_H_
#define ZEROONE_GEN_RANDOM_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/query.h"

namespace zeroone {

// Seeded random query generation for property-based tests: randomized
// cross-validation of the polynomial algorithms against the exhaustive
// definitions requires many small query/database pairs.
struct RandomQueryOptions {
  struct RelationSpec {
    std::string name;
    std::size_t arity;
  };
  std::vector<RelationSpec> relations;
  std::size_t free_variables = 1;
  std::size_t existential_variables = 2;
  std::size_t clauses = 2;            // Disjuncts (UCQ) / conjunct groups.
  std::size_t atoms_per_clause = 2;
  // Constants the query may mention, as c0..c{constant_pool-1} (matching
  // GenerateRandomDatabase's constant naming).
  std::size_t constant_pool = 3;
  double constant_probability = 0.2;  // Per atom position.
  std::uint64_t seed = 1;
};

// A union of conjunctive queries: each clause is an ∃-quantified
// conjunction of atoms; every free variable is made to occur in every
// clause (range restriction).
Query GenerateRandomUcq(const RandomQueryOptions& options);

// A first-order query: like a UCQ, but each atom may be negated with
// probability `negation_probability`, and every free variable still occurs
// in a positive atom of each clause.
Query GenerateRandomFo(const RandomQueryOptions& options,
                       double negation_probability);

// A Pos∀G query (Corollary 3's fragment): a UCQ as above whose clauses
// each gain, with probability `forall_probability` apiece, a guarded
// universal ∀z̄ (G(…) → φ) and an unguarded positive universal
// ∀z (A(…z…) ∨ B(…)) over the free variables, constants and the new bound
// ones; with the same probability the whole formula is wrapped in a
// top-level ∀z (Q ∨ A(…z…)). No negation and no unguarded implication, so
// IsPosForallGuarded holds for every output. Uses its own random stream:
// GenerateRandomUcq and GenerateRandomFo are unaffected.
Query GenerateRandomPosForallGuarded(const RandomQueryOptions& options,
                                     double forall_probability);

}  // namespace zeroone

#endif  // ZEROONE_GEN_RANDOM_QUERY_H_

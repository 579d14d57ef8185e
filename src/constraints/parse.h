#ifndef ZEROONE_CONSTRAINTS_PARSE_H_
#define ZEROONE_CONSTRAINTS_PARSE_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "constraints/fd.h"
#include "constraints/ind.h"

namespace zeroone {

// The argument syntax of the `fd` and `ind` commands, shared by the CLI and
// the server. Positions are 0-based comma lists. Every precondition of the
// FunctionalDependency and InclusionDependency constructors is checked
// here and reported as an error, so no command line can trip their
// assertions.

// "<R> <arity> <l1,l2,..> <rhs>", e.g. "R 2 0 1" for R: {0} -> 1.
StatusOr<FunctionalDependency> ParseFdArgs(const std::string& args);

// "<R> <arity> <pos,..> <S> <arity> <pos,..>", e.g. "R 2 0 S 1 0" for
// R[0] ⊆ S[0].
StatusOr<std::shared_ptr<InclusionDependency>> ParseIndArgs(
    const std::string& args);

}  // namespace zeroone

#endif  // ZEROONE_CONSTRAINTS_PARSE_H_

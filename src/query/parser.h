#ifndef ZEROONE_QUERY_PARSER_H_
#define ZEROONE_QUERY_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "query/query.h"

namespace zeroone {

// Parses the textual first-order query syntax.
//
// Grammar (whitespace-insensitive):
//
//   query       := [ name '(' var {',' var} ')' ':=' ] formula
//   formula     := quantified | implication
//   quantified  := ('exists' | 'forall') var {',' var} '.' formula
//   implication := disjunction [ '->' formula ]
//   disjunction := conjunction { '|' conjunction }
//   conjunction := unary { '&' unary }
//   unary       := '!' unary | quantified | primary
//   primary     := '(' formula ')' | 'true' | 'false'
//                | relname '(' [term {',' term}] ')'        (atom)
//                | term ('=' | '!=') term
//   term        := variable | constant
//
// Identifier interpretation: an identifier immediately followed by '(' is a
// relation name. Any other identifier is a *variable* if it was declared —
// in the query head or by an enclosing quantifier — and a *named constant*
// otherwise. Numbers (e.g. 42) and single-quoted strings (e.g. 'widget')
// are always constants. This matches the paper's style, where R(c, y)
// mentions the constant c and the variable y is quantified or free in the
// head.
//
// Quantifier bodies extend as far to the right as possible:
// "a & exists x . b & c" parses as a & (exists x . (b & c)).
//
// Examples:
//   Q(x, y) := R1(x, y) & !R2(x, y)
//   phi(x)  := exists y . E(c, y) & E(y, x)
//   := forall x . U(x) -> (R(x) & !S(x))         (Boolean query)
StatusOr<Query> ParseQuery(std::string_view text);

// Parses a candidate answer of `query`, in ParseTuple's syntax ("(c1, _1)");
// fails unless its arity is the query's.
StatusOr<Tuple> ParseAnswerTuple(const Query& query, std::string_view text);

}  // namespace zeroone

#endif  // ZEROONE_QUERY_PARSER_H_

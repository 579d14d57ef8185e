#include "datalog/measure.h"

#include <cassert>

#include "datalog/eval.h"

namespace zeroone {

GenericInstance MakeDatalogInstance(const DatalogProgram& program,
                                    const Database& db, const Tuple& tuple) {
  assert(tuple.arity() == program.goal_arity() &&
         "tuple arity must match the goal predicate");
  GenericInstance instance;
  instance.nulls = db.Nulls();
  AppendUnique(&instance.nulls, tuple.Nulls());
  instance.prefix = program.MentionedConstants();
  AppendUnique(&instance.prefix, db.Constants());
  for (Value v : tuple) {
    if (v.is_constant()) AppendUnique(&instance.prefix, {v});
  }
  // The witness owns copies of the program and the inspected tuple.
  DatalogProgram owned_program = program;
  Tuple owned_tuple = tuple;
  instance.witness = [owned_program, owned_tuple](
                         const ValuationImage& image) {
    return DatalogMembership(owned_program, image.database(),
                             image.Apply(owned_tuple));
  };
  return instance;
}

int DatalogMuLimit(const DatalogProgram& program, const Database& db,
                   const Tuple& tuple) {
  return DatalogMembership(program, db, tuple) ? 1 : 0;
}

Rational DatalogMuK(const DatalogProgram& program, const Database& db,
                    const Tuple& tuple, std::size_t k) {
  return GenericMuK(MakeDatalogInstance(program, db, tuple), db, k);
}

Rational DatalogMuViaPolynomial(const DatalogProgram& program,
                                const Database& db, const Tuple& tuple) {
  return GenericMuLimit(MakeDatalogInstance(program, db, tuple), db);
}

}  // namespace zeroone

#ifndef ZEROONE_PLAN_BYTECODE_H_
#define ZEROONE_PLAN_BYTECODE_H_

// Register-based bytecode for compiled FO evaluation (docs/planner.md has
// the instruction table).
//
// Control flow is continuation-style: every instruction names its successor
// pcs explicitly (t_pc on truth / loop body, f_pc on falsity / loop
// exhaustion), so ∧/∨/¬/→ compile to pure control-flow wiring with zero
// runtime cost. Variables are renamed to dense registers at compile time —
// each quantifier binding gets a fresh register, which makes shadowed
// variables (legal when formulas are built programmatically) a non-issue
// where the interpreter needs save/restore.
//
// Loops carry per-loop scratch state indexed by a dense loop id; the two
// instructions of a loop share it: the header (kLoopDomain/kLoopCand)
// initializes the iteration source and falls through, kLoopNext advances.

#include <cstdint>
#include <string>
#include <vector>

#include "data/relation.h"
#include "data/value.h"

namespace zeroone {
namespace plan {

// A value operand: a register or an inline constant.
struct RegOperand {
  bool is_reg = false;
  std::uint16_t reg = 0;
  Value value;  // When !is_reg.
};

// One column of a compiled atom access.
struct ColumnRole {
  enum class Kind : std::uint8_t {
    kConst,   // Probe key: inline value.
    kReg,     // Probe key: register read at access time.
    kTarget,  // Candidate loops: produces the loop value.
    kWild,    // Unconstrained.
  };
  Kind kind = Kind::kWild;
  std::uint16_t reg = 0;
  Value value;
};

// A compiled relation access, shared by membership checks (all columns
// kConst/kReg) and candidate loops (plus kTarget/kWild columns).
struct AtomAccess {
  std::uint16_t relation_index = 0;  // Into Program::relation_names.
  std::vector<ColumnRole> columns;
  Relation::Mask probe_mask = 0;  // Bits of the kConst/kReg columns.
};

enum class OpCode : std::uint8_t {
  kJump,       // pc = t_pc.
  kHaltTrue,   // Stop; result true (enumerate mode: normal completion).
  kHaltFalse,  // Stop; result false.
  kAtomCheck,  // Row membership probe of atoms[a]; t_pc / f_pc.
  kEquals,     // lhs == rhs under Value null semantics; t_pc / f_pc.
  kLoopDomain, // Init loop `a` over the full domain; falls through.
  kLoopCand,   // Init loop `a` from candidate atom access; falls through.
  kLoopNext,   // Advance loop `a`: bind reg, pc = t_pc; exhausted: f_pc.
  kEmit,       // Append output_regs as an answer tuple; pc = t_pc.
};

struct Instr {
  OpCode op = OpCode::kJump;
  std::uint16_t a = 0;    // Loop id (loop ops) or atom index (kAtomCheck).
  std::uint16_t b = 0;    // Atom index (kLoopCand).
  std::uint16_t reg = 0;  // Loop variable register.
  std::uint8_t flags = 0; // Loop heads: kFlagOrdered.
  std::uint32_t t_pc = 0;
  std::uint32_t f_pc = 0;
  RegOperand lhs, rhs;    // kEquals.
};

// Set on every output loop head (kLoopDomain or kLoopCand) and on no other
// loop. kLoopCand: candidates are filtered through the domain in domain
// order (output loops must preserve the interpreter's emission order);
// unordered loops keep first-seen row order. The VM's parallel driver
// slices pc 0 only when it carries this flag.
inline constexpr std::uint8_t kFlagOrdered = 1;

struct Program {
  std::vector<Instr> code;
  std::vector<AtomAccess> atoms;
  std::vector<std::string> relation_names;
  // kEmit payload: answer column i is register output_regs[i] (repeated
  // output variables repeat the register).
  std::vector<std::uint16_t> output_regs;
  // Membership mode: register i holds the value of variable input_vars[i],
  // bound by the caller before execution.
  std::vector<std::size_t> input_vars;
  std::uint16_t num_registers = 0;
  std::uint16_t num_loops = 0;
  bool enumerate = false;

  // Human-readable listing (debugging aid; the user-facing explain text is
  // QueryPlan::ToString).
  std::string Disassemble() const;
};

}  // namespace plan
}  // namespace zeroone

#endif  // ZEROONE_PLAN_BYTECODE_H_

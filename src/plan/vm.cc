#include "plan/vm.h"

#include <cassert>
#include <cstdint>
#include <unordered_set>

#include "common/cancel.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/pool.h"

namespace zeroone {
namespace plan {

namespace {

std::uint64_t PackValue(Value v) {
  return (static_cast<std::uint64_t>(v.kind()) << 32) | v.id();
}

// Iteration state of one loop, indexed by the loop id. Candidate loops own
// their value vector (reused across re-entries to avoid re-allocation);
// domain loops borrow the caller's domain.
struct LoopState {
  const std::vector<Value>* source = nullptr;
  std::vector<Value> values;
  std::size_t pos = 0;
};

// Scratch for candidate-loop materialization, reused across loop
// re-entries within one execution.
struct CandScratch {
  // Membership set of the quantification domain, built lazily for
  // unordered candidate loops (candidate values must lie in the domain;
  // ordered loops get that for free from the domain-order sweep).
  // `domain_set` points at `domain_set_storage` once built here — or at a
  // set the parallel driver prebuilt and shares read-only across the whole
  // morsel team, so per-morsel Run calls skip the O(|domain|) rebuild.
  std::unordered_set<std::uint64_t> domain_set_storage;
  const std::unordered_set<std::uint64_t>* domain_set = nullptr;
  std::unordered_set<std::uint64_t> seen;
  std::vector<Value> key;
};

// Computes a kLoopCand instruction's candidate values into `values`:
// distinct bindings of the loop variable for which the atom has a matching
// row under the already-bound registers, restricted to the domain. Shared
// by the interpreter case and the parallel driver's outer-loop pre-pass.
void MaterializeCand(const Program& program, const Instr& in,
                     const std::vector<const Relation*>& relations,
                     const std::vector<Value>& domain,
                     const std::vector<Value>& regs, CandScratch& scratch,
                     std::vector<Value>* values) {
  values->clear();
  const AtomAccess& atom = program.atoms[in.b];
  const Relation* rel = relations[atom.relation_index];
  bool ordered = (in.flags & kFlagOrdered) != 0;
  if (rel == nullptr) return;
  if (!ordered && scratch.domain_set == nullptr) {
    scratch.domain_set_storage.reserve(domain.size() * 2);
    for (Value v : domain) scratch.domain_set_storage.insert(PackValue(v));
    scratch.domain_set = &scratch.domain_set_storage;
  }
  scratch.key.clear();
  for (const ColumnRole& col : atom.columns) {
    if (col.kind == ColumnRole::Kind::kConst) {
      scratch.key.push_back(col.value);
    } else if (col.kind == ColumnRole::Kind::kReg) {
      scratch.key.push_back(regs[col.reg]);
    }
  }
  // clear() walks every bucket, and a previous materialization (say an
  // outer loop over the whole relation) may have left thousands of them:
  // reusing that table would make each inner-loop re-entry pay
  // O(outer size), an accidental quadratic blowup. Swap in a fresh table
  // once the bucket count outgrows the typical inner-loop cardinality.
  if (scratch.seen.bucket_count() > 256) {
    std::unordered_set<std::uint64_t>().swap(scratch.seen);
  } else {
    scratch.seen.clear();
  }
  auto consider = [&](Relation::Row row) {
    Value x;
    bool first = true;
    for (std::size_t i = 0; i < atom.columns.size(); ++i) {
      if (atom.columns[i].kind != ColumnRole::Kind::kTarget) continue;
      if (first) {
        x = row[i];
        first = false;
      } else if (row[i] != x) {
        return;  // Repeated loop variable must match itself.
      }
    }
    if (first) return;  // No target column (absent-relation case).
    std::uint64_t packed = PackValue(x);
    if (ordered) {
      scratch.seen.insert(packed);
    } else if (scratch.domain_set->count(packed) != 0 &&
               scratch.seen.insert(packed).second) {
      values->push_back(x);
    }
  };
  if (atom.probe_mask != 0) {
    for (std::uint32_t pos : rel->Probe(atom.probe_mask, scratch.key)) {
      consider(rel->row(pos));
    }
  } else {
    for (std::size_t pos = 0; pos < rel->size(); ++pos) {
      consider(rel->row(pos));
    }
  }
  if (ordered) {
    // Domain-order sweep: keeps emission order identical to a filtered
    // full-domain loop (and filters to the domain).
    for (Value v : domain) {
      if (scratch.seen.count(PackValue(v)) != 0) values->push_back(v);
    }
  }
}

// Overrides the value sequence of the outermost output loop (the one at
// pc 0): the parallel driver materializes that loop's values once, slices
// them into morsels, and runs one Run per morsel over its slice. Emission
// order within a slice matches the serial sweep of that subrange, so
// concatenating per-morsel answers in morsel order reproduces the serial
// answer sequence byte-for-byte.
struct OuterSlice {
  const std::vector<Value>* values = nullptr;
  // Prebuilt domain membership set shared read-only by every morsel's Run
  // (null when the program has no unordered candidate loops).
  const std::unordered_set<std::uint64_t>* domain_set = nullptr;
};

bool Run(const Program& program, const Database& db,
         const std::vector<Value>& domain, const std::vector<Value>& inputs,
         std::vector<Tuple>* answers, const OuterSlice* slice) {
  ZO_TRACE_SPAN("plan.exec");

  // Resolve relation names once per execution; plans are compiled against
  // the same database version they run on, so names and arities agree.
  std::vector<const Relation*> relations(program.relation_names.size());
  for (std::size_t i = 0; i < relations.size(); ++i) {
    relations[i] = db.HasRelation(program.relation_names[i])
                       ? &db.relation(program.relation_names[i])
                       : nullptr;
  }

  std::vector<Value> regs(program.num_registers);
  assert(inputs.size() <= regs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) regs[i] = inputs[i];

  std::vector<LoopState> loops(program.num_loops);
  CandScratch scratch;
  if (slice != nullptr && slice->domain_set != nullptr) {
    scratch.domain_set = slice->domain_set;
  }

  std::uint64_t steps = 0;
  std::uint32_t pc = 0;
  for (;;) {
    if ((++steps & 0xFF) == 0 && CancellationRequested()) {
      ZO_COUNTER_ADD("plan.vm.steps", steps);
      return false;
    }
    const Instr& in = program.code[pc];
    switch (in.op) {
      case OpCode::kJump:
        pc = in.t_pc;
        break;
      case OpCode::kHaltTrue:
        ZO_COUNTER_ADD("plan.vm.steps", steps);
        return true;
      case OpCode::kHaltFalse:
        ZO_COUNTER_ADD("plan.vm.steps", steps);
        return false;
      case OpCode::kAtomCheck: {
        const AtomAccess& atom = program.atoms[in.a];
        const Relation* rel = relations[atom.relation_index];
        bool hit = false;
        if (rel != nullptr) {
          assert(atom.columns.size() == rel->arity() &&
                 "atom arity mismatch");
          Value check_stack[8];
          std::vector<Value> check_heap;
          Value* values = check_stack;
          if (atom.columns.size() > 8) {
            check_heap.resize(atom.columns.size());
            values = check_heap.data();
          }
          for (std::size_t i = 0; i < atom.columns.size(); ++i) {
            const ColumnRole& col = atom.columns[i];
            values[i] = col.kind == ColumnRole::Kind::kConst ? col.value
                                                             : regs[col.reg];
          }
          hit = rel->Contains(values);
        }
        pc = hit ? in.t_pc : in.f_pc;
        break;
      }
      case OpCode::kEquals: {
        Value lhs = in.lhs.is_reg ? regs[in.lhs.reg] : in.lhs.value;
        Value rhs = in.rhs.is_reg ? regs[in.rhs.reg] : in.rhs.value;
        pc = lhs == rhs ? in.t_pc : in.f_pc;
        break;
      }
      case OpCode::kLoopDomain: {
        LoopState& loop = loops[in.a];
        loop.source = (slice != nullptr && pc == 0) ? slice->values : &domain;
        loop.pos = 0;
        ++pc;
        break;
      }
      case OpCode::kLoopCand: {
        LoopState& loop = loops[in.a];
        loop.pos = 0;
        if (slice != nullptr && pc == 0) {
          loop.source = slice->values;
        } else {
          loop.source = nullptr;
          MaterializeCand(program, in, relations, domain, regs, scratch,
                          &loop.values);
        }
        ++pc;
        break;
      }
      case OpCode::kLoopNext: {
        LoopState& loop = loops[in.a];
        const std::vector<Value>& values =
            loop.source != nullptr ? *loop.source : loop.values;
        if (loop.pos < values.size()) {
          regs[in.reg] = values[loop.pos++];
          pc = in.t_pc;
        } else {
          pc = in.f_pc;
        }
        break;
      }
      case OpCode::kEmit: {
        assert(answers != nullptr && "kEmit outside enumerate mode");
        std::vector<Value> row;
        row.reserve(program.output_regs.size());
        for (std::uint16_t reg : program.output_regs) {
          row.push_back(regs[reg]);
        }
        answers->push_back(Tuple(std::move(row)));
        pc = in.t_pc;
        break;
      }
    }
  }
}

// One per program execution, regardless of how many morsel-level Run calls
// it fans out into: the poisoned-evaluation fault (cancels its own token,
// driving the caller's discard path — svc answers DEADLINE_EXCEEDED) and
// the plan.exec counter keep their per-query meaning.
void ExecutionEntry() {
  ZO_COUNTER_INC("plan.exec");
  if (ZO_FAULT_POINT("plan.vm.cancel")) {
    if (CancelToken* token = CurrentCancelToken()) token->Cancel();
  }
}

// True when the instruction at pc 0 is an output loop that can be
// pre-materialized and sliced: each of its values starts an independent
// sweep of the emissions below it, and its candidate key reads no
// registers (none are bound at pc 0). Only output loops carry
// kFlagOrdered. A Boolean program has none, so its pc 0 is a quantifier
// loop whose verdict needs the whole domain — it runs serially.
bool SliceableOuterLoop(const Program& program) {
  if (!program.enumerate || program.code.empty()) return false;
  const Instr& in = program.code[0];
  if ((in.flags & kFlagOrdered) == 0) return false;
  if (in.op == OpCode::kLoopDomain) return true;
  if (in.op != OpCode::kLoopCand) return false;
  for (const ColumnRole& col : program.atoms[in.b].columns) {
    if (col.kind == ColumnRole::Kind::kReg) return false;
  }
  return true;
}

}  // namespace

bool ExecuteMembership(const Program& program, const Database& db,
                       const std::vector<Value>& domain,
                       const std::vector<Value>& inputs) {
  assert(!program.enumerate);
  ExecutionEntry();
  return Run(program, db, domain, inputs, nullptr, nullptr);
}

bool ExecuteEnumerate(const Program& program, const Database& db,
                      const std::vector<Value>& domain,
                      std::vector<Tuple>* answers) {
  assert(program.enumerate);
  ExecutionEntry();
  if (SliceableOuterLoop(program)) {
    // Materialize the outermost loop's value sequence once, then sweep it
    // in morsels: per-morsel Run calls emit into per-morsel slots that
    // concatenate, in morsel order, to the serial emission sequence.
    const std::vector<Value>* outer = &domain;
    std::vector<Value> cand;
    // Domain membership, built once and shared read-only by the whole
    // team: per-morsel Run calls would otherwise each pay the O(|domain|)
    // rebuild, which caps scaling on candidate-loop-heavy plans.
    std::unordered_set<std::uint64_t> shared_domain;
    const std::unordered_set<std::uint64_t>* shared = nullptr;
    for (const Instr& in : program.code) {
      if (in.op == OpCode::kLoopCand && (in.flags & kFlagOrdered) == 0) {
        shared_domain.reserve(domain.size() * 2);
        for (Value v : domain) shared_domain.insert(PackValue(v));
        shared = &shared_domain;
        break;
      }
    }
    if (program.code[0].op == OpCode::kLoopCand) {
      std::vector<const Relation*> relations(program.relation_names.size());
      for (std::size_t i = 0; i < relations.size(); ++i) {
        relations[i] = db.HasRelation(program.relation_names[i])
                           ? &db.relation(program.relation_names[i])
                           : nullptr;
      }
      CandScratch scratch;
      scratch.domain_set = shared;
      std::vector<Value> regs(program.num_registers);
      MaterializeCand(program, program.code[0], relations, domain, regs,
                      scratch, &cand);
      outer = &cand;
    }
    par::ForPlan morsels = par::PlanMorsels(outer->size(), par::ForOptions{});
    if (morsels.workers > 1) {
      std::vector<std::vector<Tuple>> slots(morsels.morsels);
      bool ok = par::ParallelFor(morsels, [&](const par::Morsel& m,
                                              std::size_t) {
        std::vector<Value> sub(outer->begin() + m.begin,
                               outer->begin() + m.end);
        OuterSlice slice{&sub, shared};
        Run(program, db, domain, {}, &slots[m.index], &slice);
        return !CancellationRequested();
      });
      // Merge even after an abort: cancelled computations return partial
      // results by design and the token's installer discards them.
      for (std::vector<Tuple>& slot : slots) {
        answers->insert(answers->end(), std::make_move_iterator(slot.begin()),
                        std::make_move_iterator(slot.end()));
      }
      return ok;
    }
  }
  return Run(program, db, domain, {}, answers, nullptr);
}

}  // namespace plan
}  // namespace zeroone

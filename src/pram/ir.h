// The EREW PRAM program model (paper §2.1).
//
// A program is a sequence of STEPS; at step π every thread T_i performs one
// instruction z ← f(x, y) on shared variables, all threads synchronously.
// f comes from a fixed set of basic operations; the set here includes two
// NONDETERMINISTIC operations (kRandBelow, kCoin) whose results are drawn
// from the executing processor's private random stream — these are what
// break the classical deterministic execution schemes and motivate the
// paper.
//
// Operand addressing is static (variable indices are fixed per
// instruction), which is what lets the execution scheme precompute, for
// every read, the step that last wrote the operand (the "writer index",
// program.h) and thus distinguish current values from tardy clobbers by
// timestamp.
//
// One extension goes beyond the paper's static model: kGatherDyn, a read
// whose target variable is COMPUTED at run time from variables' values (an
// index plus an offset, capped by a bound: the shape a CSR row-offset walk
// needs), restricted to a statically declared segment.  The writer index
// still covers it because it answers the last writer of EVERY variable
// before every step — only the choice of which variable to ask about
// moves to run time.  See the op's comment below for the exact semantics
// and the EREW discipline it obeys.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "sim/word.h"
#include "util/rng.h"

namespace apex::pram {

using Word = sim::Word;

enum class OpCode : std::uint8_t {
  kNop,        ///< No operation (thread idle this step).
  kConst,      ///< z = imm
  kCopy,       ///< z = x
  kAdd,        ///< z = x + y
  kSub,        ///< z = x - y   (wrapping)
  kMul,        ///< z = x * y   (wrapping)
  kMin,        ///< z = min(x, y)
  kMax,        ///< z = max(x, y)
  kXor,        ///< z = x ^ y
  kAnd,        ///< z = x & y
  kOr,         ///< z = x | y
  kLess,       ///< z = (x < y) ? 1 : 0
  kEq,         ///< z = (x == y) ? 1 : 0
  kSelect,     ///< z = (c != 0) ? x : y       (three-operand conditional)
  kRandBelow,  ///< z = uniform random in [0, imm)        [nondeterministic]
  kCoin,       ///< z = 1 w.p. imm/2^32, else 0           [nondeterministic]
  /// Data-DEPENDENT window read: the window base and bound are VARIABLES,
  /// not constants — this is what a real CSR frontier walk needs, where a
  /// processor's element range comes from the row-offset array at run
  /// time.  Let j = M[x] + M[y] (wrapping); if j < M[c] and j < seg_len,
  /// z = M[seg_base + j], else z = 0: an out-of-range COMPUTED index is
  /// well-defined, never a fault.  `x` is the index variable, `y` the
  /// base-offset variable, `c` the bound variable (all three are ordinary
  /// exclusive-read operands); imm packs the STATIC segment
  /// (seg_len << 32 | seg_base) that confines every possible computed
  /// read, so the writer index and audits stay precomputable.  The segment
  /// must be non-empty and lie inside nvars.  EREW discipline: reads
  /// inside a declared segment are CREW — deliberately relaxed, because
  /// segment cells are frozen data loaded before the kernel runs and a
  /// concurrent pure read under the same stamp discipline is harmless —
  /// but any same-step WRITE into any declared segment is rejected by the
  /// checker.
  kGatherDyn,
};

const char* opcode_name(OpCode op) noexcept;

// The predicates below are inline: every per-instruction pass (lowering,
// the EREW pass, the writer index, the interpreter, both executors) asks them
// once or more per instruction.

/// True for operations whose result depends on the executing processor's
/// random stream.
inline constexpr bool is_nondeterministic(OpCode op) noexcept {
  return op == OpCode::kRandBelow || op == OpCode::kCoin;
}

/// Number of STATICALLY addressed variable operands read by the op (0, 1,
/// 2, or 3 for kSelect and kGatherDyn).  kGatherDyn's run-time segment
/// read is extra and handled by the executors directly.
inline constexpr int reads_of(OpCode op) noexcept {
  switch (op) {
    case OpCode::kNop:
    case OpCode::kConst:
    case OpCode::kRandBelow:
    case OpCode::kCoin:
      return 0;
    case OpCode::kCopy:
      return 1;
    case OpCode::kSelect:
    case OpCode::kGatherDyn:
      return 3;
    default:
      return 2;
  }
}

/// True if the op writes its destination (everything but kNop).
inline constexpr bool writes_dest(OpCode op) noexcept {
  return op != OpCode::kNop;
}

/// True for kGatherDyn: the op performs a run-time-addressed read inside
/// the static segment packed into imm (base/bound resolved from variables).
inline constexpr bool reads_dyn_window(OpCode op) noexcept {
  return op == OpCode::kGatherDyn;
}

struct Instr {
  OpCode op = OpCode::kNop;
  std::uint32_t z = 0;  ///< Destination variable.
  std::uint32_t x = 0;  ///< First operand (if reads_of >= 1).
  std::uint32_t y = 0;  ///< Second operand (if reads_of >= 2).
  std::uint32_t c = 0;  ///< Third operand (kSelect, kGatherDyn's bound).
  Word imm = 0;         ///< Immediate (kConst, kRandBelow, kCoin).

  // Convenience constructors.
  static Instr nop() { return {}; }
  static Instr constant(std::uint32_t z, Word imm) {
    return {OpCode::kConst, z, 0, 0, 0, imm};
  }
  static Instr copy(std::uint32_t z, std::uint32_t x) {
    return {OpCode::kCopy, z, x, 0, 0, 0};
  }
  static Instr add(std::uint32_t z, std::uint32_t x, std::uint32_t y) {
    return {OpCode::kAdd, z, x, y, 0, 0};
  }
  static Instr sub(std::uint32_t z, std::uint32_t x, std::uint32_t y) {
    return {OpCode::kSub, z, x, y, 0, 0};
  }
  static Instr mul(std::uint32_t z, std::uint32_t x, std::uint32_t y) {
    return {OpCode::kMul, z, x, y, 0, 0};
  }
  static Instr min(std::uint32_t z, std::uint32_t x, std::uint32_t y) {
    return {OpCode::kMin, z, x, y, 0, 0};
  }
  static Instr max(std::uint32_t z, std::uint32_t x, std::uint32_t y) {
    return {OpCode::kMax, z, x, y, 0, 0};
  }
  static Instr xor_(std::uint32_t z, std::uint32_t x, std::uint32_t y) {
    return {OpCode::kXor, z, x, y, 0, 0};
  }
  static Instr and_(std::uint32_t z, std::uint32_t x, std::uint32_t y) {
    return {OpCode::kAnd, z, x, y, 0, 0};
  }
  static Instr or_(std::uint32_t z, std::uint32_t x, std::uint32_t y) {
    return {OpCode::kOr, z, x, y, 0, 0};
  }
  static Instr less(std::uint32_t z, std::uint32_t x, std::uint32_t y) {
    return {OpCode::kLess, z, x, y, 0, 0};
  }
  static Instr eq(std::uint32_t z, std::uint32_t x, std::uint32_t y) {
    return {OpCode::kEq, z, x, y, 0, 0};
  }
  static Instr select(std::uint32_t z, std::uint32_t c, std::uint32_t x,
                      std::uint32_t y) {
    return {OpCode::kSelect, z, x, y, c, 0};
  }
  static Instr rand_below(std::uint32_t z, Word bound) {
    return {OpCode::kRandBelow, z, 0, 0, 0, bound};
  }
  /// z = (M[idx] + M[off] < min(M[bound], seg_len))
  ///         ? M[seg_base + M[idx] + M[off]] : 0.
  /// `idx`/`off`/`bound` are variable operands; `seg_base`/`seg_len`
  /// statically declare the segment every computed read stays inside.
  static Instr gather_dyn(std::uint32_t z, std::uint32_t idx,
                          std::uint32_t off, std::uint32_t bound,
                          std::uint32_t seg_base, std::uint32_t seg_len) {
    return {OpCode::kGatherDyn, z, idx, off, bound,
            (Word{seg_len} << 32) | seg_base};
  }
  /// Coin with success probability p (quantized to 32-bit fixed point).
  static Instr coin(std::uint32_t z, double p);

  /// Field-wise equality — the "bit-for-bit" relation the .pram round-trip
  /// tests pin (lang::emit_pram followed by lang::compile_source must
  /// reproduce every field of every instruction).
  bool operator==(const Instr&) const = default;

  std::string to_string() const;
};

/// Sentinel returned by gather_dyn_target for an out-of-range computed
/// index.
inline constexpr std::uint32_t kGatherOutOfRange =
    std::numeric_limits<std::uint32_t>::max();

/// The static segment a kGatherDyn confines its computed reads to.
/// Precondition: ins.op == kGatherDyn.
inline constexpr std::uint32_t dyn_seg_base(const Instr& ins) noexcept {
  return static_cast<std::uint32_t>(ins.imm & 0xffffffffULL);
}
inline constexpr std::uint32_t dyn_seg_len(const Instr& ins) noexcept {
  return static_cast<std::uint32_t>(ins.imm >> 32);
}

/// The variable a kGatherDyn reads given the already-combined index
/// j = M[x] + M[y] and the resolved bound value M[c], or
/// kGatherOutOfRange when the read falls outside both limits (result 0).
/// Precondition: ins.op == kGatherDyn.
inline constexpr std::uint32_t gather_dyn_target(const Instr& ins, Word j,
                                                 Word bound) noexcept {
  return (j < bound && j < dyn_seg_len(ins))
             ? dyn_seg_base(ins) + static_cast<std::uint32_t>(j)
             : kGatherOutOfRange;
}

/// Pure evaluation of a deterministic op on operand values.
/// Precondition: !is_nondeterministic(op).  For kGatherDyn the caller
/// resolves the computed segment read into `y` (0 when out of range) and
/// the result is that value.
Word eval_deterministic(const Instr& ins, Word x, Word y, Word c) noexcept;

/// The value `ins` yields from its operand values (the eval_deterministic
/// convention), drawing from `rng` for kRandBelow (one below() call unless
/// imm is 0) and kCoin (one uniform() call).  The interpreter and both
/// executors evaluate through this one definition.  Inline, so the host's
/// flattened visit keeps the generator state in registers across it.
inline Word eval_instr(const Instr& ins, Word x, Word y, Word c,
                       apex::Rng& rng) noexcept {
  switch (ins.op) {
    case OpCode::kRandBelow:
      return ins.imm == 0 ? 0 : rng.below(ins.imm);
    case OpCode::kCoin:
      return rng.uniform() * 4294967296.0 < static_cast<double>(ins.imm) ? 1
                                                                         : 0;
    default:
      return eval_deterministic(ins, x, y, c);
  }
}

/// True iff `v` is a possible result of the (possibly nondeterministic)
/// instruction — the support used by Theorem 1's Correctness property.
/// For deterministic ops the caller supplies the operand values.
bool in_support(const Instr& ins, Word v, Word x, Word y, Word c) noexcept;

}  // namespace apex::pram

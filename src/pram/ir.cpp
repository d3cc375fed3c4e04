#include "pram/ir.h"

#include <algorithm>
#include <cmath>

namespace apex::pram {

const char* opcode_name(OpCode op) noexcept {
  switch (op) {
    case OpCode::kNop: return "nop";
    case OpCode::kConst: return "const";
    case OpCode::kCopy: return "copy";
    case OpCode::kAdd: return "add";
    case OpCode::kSub: return "sub";
    case OpCode::kMul: return "mul";
    case OpCode::kMin: return "min";
    case OpCode::kMax: return "max";
    case OpCode::kXor: return "xor";
    case OpCode::kAnd: return "and";
    case OpCode::kOr: return "or";
    case OpCode::kLess: return "less";
    case OpCode::kEq: return "eq";
    case OpCode::kSelect: return "select";
    case OpCode::kRandBelow: return "rand_below";
    case OpCode::kCoin: return "coin";
    case OpCode::kGatherDyn: return "gather_dyn";
  }
  return "?";
}

Instr Instr::coin(std::uint32_t z, double p) {
  p = std::clamp(p, 0.0, 1.0);
  const Word fixed = static_cast<Word>(std::llround(p * 4294967296.0));
  return {OpCode::kCoin, z, 0, 0, 0, std::min<Word>(fixed, 1ULL << 32)};
}

std::string Instr::to_string() const {
  std::string s = opcode_name(op);
  if (op == OpCode::kNop) return s;
  s += " v" + std::to_string(z);
  const int r = reads_of(op);
  if (op == OpCode::kSelect)
    s += " <- v" + std::to_string(c) + " ? v" + std::to_string(x) + " : v" +
         std::to_string(y);
  else if (op == OpCode::kGatherDyn)
    s += " <- seg[" + std::to_string(dyn_seg_base(*this)) + " + M[v" +
         std::to_string(x) + "] + M[v" + std::to_string(y) +
         "]] bound=v" + std::to_string(c) +
         " seg_len=" + std::to_string(dyn_seg_len(*this));
  else if (r >= 1)
    s += " <- v" + std::to_string(x);
  if (r >= 2 && op != OpCode::kSelect && op != OpCode::kGatherDyn)
    s += ", v" + std::to_string(y);
  if (op == OpCode::kConst || op == OpCode::kRandBelow || op == OpCode::kCoin)
    s += " imm=" + std::to_string(imm);
  return s;
}

Word eval_deterministic(const Instr& ins, Word x, Word y, Word c) noexcept {
  switch (ins.op) {
    case OpCode::kConst: return ins.imm;
    case OpCode::kCopy: return x;
    case OpCode::kAdd: return x + y;
    case OpCode::kSub: return x - y;
    case OpCode::kMul: return x * y;
    case OpCode::kMin: return std::min(x, y);
    case OpCode::kMax: return std::max(x, y);
    case OpCode::kXor: return x ^ y;
    case OpCode::kAnd: return x & y;
    case OpCode::kOr: return x | y;
    case OpCode::kLess: return x < y ? 1 : 0;
    case OpCode::kEq: return x == y ? 1 : 0;
    case OpCode::kSelect: return c != 0 ? x : y;
    // kGatherDyn: the caller resolved the computed segment read into y (0
    // when out of range).
    case OpCode::kGatherDyn: return y;
    default: return 0;  // kNop and nondeterministic ops have no det value
  }
}

bool in_support(const Instr& ins, Word v, Word x, Word y, Word c) noexcept {
  switch (ins.op) {
    case OpCode::kRandBelow:
      return v < ins.imm;
    case OpCode::kCoin:
      if (ins.imm == 0) return v == 0;
      if (ins.imm >= (1ULL << 32)) return v == 1;
      return v <= 1;
    case OpCode::kNop:
      return true;
    default:
      return v == eval_deterministic(ins, x, y, c);
  }
}

}  // namespace apex::pram

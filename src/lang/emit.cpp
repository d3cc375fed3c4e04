#include "lang/emit.h"

#include <sstream>
#include <utility>
#include <vector>

namespace apex::lang {

namespace {

/// Appended: "v" + std::to_string(v) draws a false -Wrestrict from GCC 12
/// at -O3.
std::string ref(std::uint32_t v) {
  std::string r = "v";
  r += std::to_string(v);
  return r;
}

}  // namespace

std::string emit_pram(const pram::Program& p, const std::string& name,
                      const std::string& comment) {
  using pram::Instr;
  using pram::OpCode;
  std::ostringstream os;
  if (!comment.empty()) {
    std::istringstream lines(comment);
    std::string line;
    while (std::getline(lines, line)) os << "# " << line << '\n';
  }
  os << "pram " << name << '\n';
  os << "procs " << p.nthreads() << '\n';
  os << "vars " << p.nvars() << '\n';

  // Hoist gather_dyn segments into declarations, first-use order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> segs;
  auto seg_id = [&](const Instr& ins) {
    const auto key = std::make_pair(pram::dyn_seg_base(ins),
                                    pram::dyn_seg_len(ins));
    for (std::size_t i = 0; i < segs.size(); ++i)
      if (segs[i] == key) return i;
    segs.push_back(key);
    return segs.size() - 1;
  };
  for (std::size_t s = 0; s < p.nsteps(); ++s)
    for (const Instr& ins : p.step(s).instrs)
      if (ins.op == OpCode::kGatherDyn) seg_id(ins);
  for (std::size_t i = 0; i < segs.size(); ++i)
    os << "segment s" << i << " = " << ref(segs[i].first) << " : "
       << segs[i].second << '\n';

  for (std::size_t s = 0; s < p.nsteps(); ++s) {
    os << "\nstep {\n";
    for (std::size_t t = 0; t < p.nthreads(); ++t) {
      const Instr& ins = p.step(s).instrs[t];
      if (ins.op == OpCode::kNop) continue;
      os << "  " << t << ": " << pram::opcode_name(ins.op) << ' '
         << ref(ins.z);
      switch (ins.op) {
        case OpCode::kConst:
        case OpCode::kRandBelow:
        case OpCode::kCoin:
          os << ", " << ins.imm;
          break;
        case OpCode::kCopy:
          os << ", " << ref(ins.x);
          break;
        case OpCode::kSelect:
          os << ", " << ref(ins.c) << ", " << ref(ins.x) << ", "
             << ref(ins.y);
          break;
        case OpCode::kGatherDyn:
          os << ", " << ref(ins.x) << ", " << ref(ins.y) << ", "
             << ref(ins.c) << ", s" << seg_id(ins);
          break;
        default:  // two-operand ALU ops
          os << ", " << ref(ins.x) << ", " << ref(ins.y);
          break;
      }
      os << '\n';
    }
    os << "}\n";
  }
  return os.str();
}

}  // namespace apex::lang

#include "pram/interp.h"

#include <stdexcept>

namespace apex::pram {

namespace {

/// The y operand eval_deterministic and in_support take, against the
/// pre-step image `mem`: M[y], or for kGatherDyn its computed segment read
/// (index M[x] + M[y], wrapping; bound M[c]; 0 when out of range).  The
/// static segment bound caps the subscript before it can overflow.
Word y_operand(const Instr& ins, const std::vector<Word>& mem) {
  if (ins.op != OpCode::kGatherDyn) return mem[ins.y];
  const Word j = mem[ins.x] + mem[ins.y];
  const std::uint32_t target = gather_dyn_target(ins, j, mem[ins.c]);
  return target == kGatherOutOfRange ? 0 : mem[target];
}

}  // namespace

InterpResult Interpreter::run(std::vector<Word> initial, apex::Rng rng) const {
  const Program& p = *prog_;
  initial.resize(p.nvars(), 0);
  InterpResult out;
  out.memory = std::move(initial);
  out.produced.assign(p.nsteps(), std::vector<Word>(p.nthreads(), 0));

  for (std::size_t s = 0; s < p.nsteps(); ++s) {
    const Step& st = p.step(s);
    // Compute phase: all reads see the pre-step image.
    for (std::size_t t = 0; t < p.nthreads(); ++t) {
      const Instr& ins = st.instrs[t];
      if (ins.op == OpCode::kNop) continue;
      out.produced[s][t] =
          eval_instr(ins, out.memory[ins.x], y_operand(ins, out.memory),
                     out.memory[ins.c], rng);
    }
    // Copy phase: commit all writes simultaneously (EREW guarantees no
    // write-write conflicts).
    for (std::size_t t = 0; t < p.nthreads(); ++t) {
      const Instr& ins = st.instrs[t];
      if (!writes_dest(ins.op)) continue;
      out.memory[ins.z] = out.produced[s][t];
    }
  }
  return out;
}

InterpResult Interpreter::run_deterministic(std::vector<Word> initial) const {
  if (prog_->is_nondeterministic())
    throw std::logic_error(
        "Interpreter::run_deterministic on a nondeterministic program");
  return run(std::move(initial), apex::Rng(0));
}

std::string check_execution_consistency(
    const Program& p, const std::vector<Word>& initial,
    const std::vector<std::vector<Word>>& produced,
    const std::vector<Word>& final_memory) {
  if (produced.size() != p.nsteps()) return "produced trace has wrong length";
  std::vector<Word> mem = initial;
  mem.resize(p.nvars(), 0);

  for (std::size_t s = 0; s < p.nsteps(); ++s) {
    if (produced[s].size() != p.nthreads())
      return "produced[" + std::to_string(s) + "] has wrong width";
    const Step& st = p.step(s);
    for (std::size_t t = 0; t < p.nthreads(); ++t) {
      const Instr& ins = st.instrs[t];
      if (ins.op == OpCode::kNop) continue;
      const Word got = produced[s][t];
      // kGatherDyn resolves its computed read against the replay image.
      if (!in_support(ins, got, mem[ins.x], y_operand(ins, mem), mem[ins.c]))
        return "step " + std::to_string(s) + " thread " + std::to_string(t) +
               ": value " + std::to_string(got) + " not a valid result of " +
               ins.to_string();
    }
    for (std::size_t t = 0; t < p.nthreads(); ++t) {
      const Instr& ins = st.instrs[t];
      if (!writes_dest(ins.op)) continue;
      mem[ins.z] = produced[s][t];
    }
  }

  if (final_memory.size() != mem.size()) return "final memory size mismatch";
  for (std::size_t v = 0; v < mem.size(); ++v) {
    if (mem[v] != final_memory[v])
      return "final memory mismatch at v" + std::to_string(v) + ": replay " +
             std::to_string(mem[v]) + " vs executed " +
             std::to_string(final_memory[v]);
  }
  return {};
}

}  // namespace apex::pram

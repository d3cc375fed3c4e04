#include "pram/program.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <utility>

#include "util/parallel.h"

namespace apex::pram {

std::string ErewViolation::message(std::size_t nvars) const {
  const std::string at = "PRAM step " + std::to_string(step) + ": ";
  // Appended: "v" + std::to_string(var) draws a false -Wrestrict from
  // GCC 12 at -O3.
  std::string v = "v";
  v += std::to_string(var);
  const std::string how = operand == Operand::kZ ? "written" : "read";
  const std::string seg =
      "[v" + std::to_string(seg_base) + ", v" +
      std::to_string(std::uint64_t{seg_base} + seg_len) + ")";
  switch (rule) {
    case ErewRule::kStepWidth:
      return at + "instruction count != nthreads";
    case ErewRule::kOutOfRange:
      return at + how + " variable " + v + " out of range (nvars=" +
             std::to_string(nvars) + ")";
    case ErewRule::kShared:
      return at + "EREW violation, variable " + v + " " + how +
             " by more than one thread";
    case ErewRule::kEmptySegment:
      return at + "gather_dyn segment length is 0";
    case ErewRule::kSegmentOutOfRange:
      return at + "gather_dyn segment " + seg +
             " exceeds nvars=" + std::to_string(nvars);
    case ErewRule::kSegmentWrite:
      return at + "variable " + v + " written inside gather_dyn segment " +
             seg;
  }
  return at + "EREW violation";
}

namespace {

/// The least instruction slots (steps x threads) worth an EREW range of
/// their own.  Calibrated on registry programs, best of 41 passes (4-vCPU
/// container, GCC 12.2, Release): a second range made programs of 7-8 K
/// slots slower (bfs n = 32, spmv n = 128), and programs of 16-35 K
/// slots 1.2-1.5x faster (spmv n = 256, prefix n = 1024, bfs n = 64).
constexpr std::size_t kMinSlotsPerRange = std::size_t{16} << 10;

/// The 64-bit words of a mark bitset over `nvars` variables.
std::size_t mark_words(std::size_t nvars) { return nvars / 64 + 1; }

/// One range's findings: with a sink every violation, else the first.
struct RangeScan {
  std::vector<ErewViolation> found;
  ErewScan scan;
};

/// The EREW pass over steps [first, last).  `reads` and `writes` hold a
/// bit per variable; they are clear on entry and on return.  With `all`
/// false the range ends with the step of its first violation.
void scan_range(std::size_t nthreads, std::size_t nvars,
                const std::vector<Step>& steps, std::size_t first,
                std::size_t last, bool all, std::uint64_t* reads,
                std::uint64_t* writes, RangeScan& out) {
  const std::size_t words = mark_words(nvars);
  bool nondet = false;  // kept out of `out`, which report() reaches
  bool dyn_gather = false;
  auto report = [&](const ErewViolation& v) {
    if (all || out.found.empty()) out.found.push_back(v);
    ++out.scan.violations;
  };
  std::vector<std::pair<std::uint32_t, std::uint32_t>> segs;  // (base, len)
  for (std::size_t s = first; s < last; ++s) {
    const std::vector<Instr>& instrs = steps[s].instrs;
    if (instrs.size() != nthreads)
      report({ErewRule::kStepWidth, s});
    // Marks `var` as used by `operand` of thread t.
    auto use = [&](std::uint64_t* marks, std::size_t t, Operand operand,
                   std::uint32_t var) {
      if (var >= nvars) {
        report({ErewRule::kOutOfRange, s, t, operand, var});
        return;
      }
      std::uint64_t& word = marks[var >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (var & 63);
      if (word & bit)
        report({ErewRule::kShared, s, t, operand, var});
      else
        word |= bit;
    };
    segs.clear();
    for (std::size_t t = 0; t < instrs.size(); ++t) {
      const Instr& ins = instrs[t];
      nondet |= is_nondeterministic(ins.op);
      const int r = reads_of(ins.op);
      if (r >= 1) use(reads, t, Operand::kX, ins.x);
      if (r >= 2) use(reads, t, Operand::kY, ins.y);
      if (r >= 3) use(reads, t, Operand::kC, ins.c);
      if (reads_dyn_window(ins.op)) {
        // Segment reads are CREW (pure loads of frozen data; see ir.h), so
        // they don't set the read marks -- but the segment itself must be
        // well-formed, and no thread may WRITE into any declared segment
        // this step (checked once the step is scanned).
        dyn_gather = true;
        const auto seg = std::make_pair(dyn_seg_base(ins), dyn_seg_len(ins));
        if (seg.second == 0)
          report({ErewRule::kEmptySegment, s, t, Operand::kX, 0, seg.first,
                  seg.second});
        else if (std::uint64_t{seg.first} + seg.second > nvars)
          report({ErewRule::kSegmentOutOfRange, s, t, Operand::kX, 0,
                  seg.first, seg.second});
        else if (std::find(segs.begin(), segs.end(), seg) == segs.end())
          segs.push_back(seg);
      }
      if (writes_dest(ins.op)) use(writes, t, Operand::kZ, ins.z);
    }
    // No same-step write may land inside a declared gather_dyn segment:
    // dynamic window reads are only safe because segment data is frozen
    // while the step runs.
    for (const auto& [base, len] : segs)
      for (std::size_t t = 0; t < instrs.size(); ++t) {
        const Instr& ins = instrs[t];
        if (writes_dest(ins.op) && ins.z >= base && ins.z - base < len)
          report({ErewRule::kSegmentWrite, s, t, Operand::kZ, ins.z, base,
                  len});
      }
    // Clear the step's marks: whole while that is at most four words per
    // instruction, since walking the step again made the pass 1.3-1.9x
    // slower on bfs n=1e4 (2,387 words, 4,096 instructions) and dag n=64
    // (169 words, 64 instructions).  Past that, the walk keeps a sparse
    // program's cost O(operands), not O(nvars), per step.
    if (words <= 4 * instrs.size()) {
      std::fill(reads, reads + words, 0);
      std::fill(writes, writes + words, 0);
    } else {
      auto clear = [&](std::uint64_t* marks, std::uint32_t var) {
        if (var < nvars) marks[var >> 6] = 0;
      };
      for (const Instr& ins : instrs) {
        const int r = reads_of(ins.op);
        if (r >= 1) clear(reads, ins.x);
        if (r >= 2) clear(reads, ins.y);
        if (r >= 3) clear(reads, ins.c);
        if (writes_dest(ins.op)) clear(writes, ins.z);
      }
    }
    if (!all && out.scan.violations != 0) break;
  }
  out.scan.nondet = nondet;
  out.scan.dyn_gather = dyn_gather;
}

}  // namespace

namespace detail {

ErewScan scan_erew(std::size_t nthreads, std::size_t nvars,
                   const std::vector<Step>& steps, ErewSink* sink,
                   std::size_t ranges) {
  const std::size_t n = steps.size();
  ranges = std::clamp<std::size_t>(ranges, 1, std::max<std::size_t>(n, 1));
  // Each thread's two bitsets (reads, then writes), allocated here on the
  // calling thread.
  const std::size_t words = mark_words(nvars);
  std::vector<std::vector<std::uint64_t>> marks(
      ranges, std::vector<std::uint64_t>(2 * words));
  std::vector<RangeScan> parts(ranges);
  util::parallel_for(ranges, ranges, [&](std::size_t r, std::size_t w) {
    std::uint64_t* reads = marks[w].data();
    scan_range(nthreads, nvars, steps, r * n / ranges, (r + 1) * n / ranges,
               sink != nullptr, reads, reads + words, parts[r]);
  });
  ErewScan scan;
  for (const RangeScan& part : parts) {
    for (const ErewViolation& v : part.found) {
      if (!sink) throw std::invalid_argument(v.message(nvars));
      sink->violation(v);
    }
    scan.violations += part.scan.violations;
    scan.nondet |= part.scan.nondet;
    scan.dyn_gather |= part.scan.dyn_gather;
  }
  return scan;
}

}  // namespace detail

ErewScan scan_erew(std::size_t nthreads, std::size_t nvars,
                   const std::vector<Step>& steps, ErewSink* sink) {
  std::size_t slots = 0;
  for (const Step& st : steps) slots += st.instrs.size();
  return detail::scan_erew(
      nthreads, nvars, steps, sink,
      util::threads_for(slots, kMinSlotsPerRange, steps.size()));
}

void Program::validate_erew(std::size_t nthreads, std::size_t nvars,
                            const std::vector<Step>& steps) {
  scan_erew(nthreads, nvars, steps, nullptr);
}

Program::Program(std::size_t nthreads, std::size_t nvars,
                 std::vector<Step> steps, ErewSink* sink)
    : nthreads_(nthreads), nvars_(nvars), steps_(std::move(steps)) {
  if (nthreads_ == 0) throw std::invalid_argument("Program: nthreads == 0");
  if (nvars_ == 0) throw std::invalid_argument("Program: nvars == 0");
  const ErewScan scan = scan_erew(nthreads_, nvars_, steps_, sink);
  if (scan.violations != 0)
    throw std::invalid_argument("Program: " +
                                std::to_string(scan.violations) +
                                " EREW violations");
  nondet_ = scan.nondet;
  has_dyn_gather_ = scan.dyn_gather;
  build_write_index();
}

void Program::build_write_index() {
  // Count each variable's writes, then sum the counts forward: each
  // variable's offset is the end of its slice.  A backward walk over the
  // steps then fills every slice from its end, so each one comes out
  // sorted ascending and each offset ends at its slice's start.  (A dense
  // [step][var] snapshot table would be O(nsteps * nvars): gigabytes at
  // graph scale.)
  write_offsets_.assign(nvars_ + 1, 0);
  for (const Step& st : steps_)
    for (const Instr& ins : st.instrs)
      if (writes_dest(ins.op)) ++write_offsets_[ins.z];
  for (std::size_t v = 1; v <= nvars_; ++v)
    write_offsets_[v] += write_offsets_[v - 1];
  write_steps_.resize(write_offsets_[nvars_]);
  for (std::size_t s = steps_.size(); s-- > 0;)
    for (const Instr& ins : steps_[s].instrs)
      if (writes_dest(ins.op))
        write_steps_[--write_offsets_[ins.z]] = static_cast<std::uint32_t>(s);
}

std::uint32_t Program::last_writer_before(std::size_t s,
                                          std::uint32_t var) const {
  if (var >= nvars_)
    throw std::out_of_range("last_writer_before: variable out of range");
  const std::uint32_t* first = write_steps_.data() + write_offsets_[var];
  const std::uint32_t* last = write_steps_.data() + write_offsets_[var + 1];
  // Largest write step strictly below s (the lists are sorted ascending).
  const std::uint32_t* it =
      std::lower_bound(first, last, static_cast<std::uint32_t>(s));
  return it == first ? kInitial : *(it - 1);
}

void Program::print(std::ostream& os) const {
  os << "PRAM program: " << nthreads_ << " threads, " << nvars_ << " vars, "
     << steps_.size() << " steps\n";
  for (std::size_t s = 0; s < steps_.size(); ++s) {
    os << " step " << s << ":\n";
    for (std::size_t t = 0; t < nthreads_; ++t) {
      const Instr& ins = steps_[s].instrs[t];
      if (ins.op == OpCode::kNop) continue;
      os << "   T" << t << ": " << ins.to_string() << '\n';
    }
  }
}

std::string Program::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

ProgramBuilder::StepBuilder& ProgramBuilder::StepBuilder::thread(std::size_t t,
                                                                 Instr ins) {
  if (t >= parent_->nthreads_)
    throw std::invalid_argument("ProgramBuilder: thread index out of range");
  parent_->steps_.at(index_).instrs.at(t) = ins;
  return *this;
}

ProgramBuilder::StepBuilder ProgramBuilder::step() {
  steps_.emplace_back();
  steps_.back().instrs.assign(nthreads_, Instr::nop());
  return StepBuilder(*this, steps_.size() - 1);
}

Program ProgramBuilder::build() {
  return Program(nthreads_, nvars_, std::move(steps_));
}

}  // namespace apex::pram

#include "pram/program.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace apex::pram {

std::string ErewViolation::message(std::size_t nvars) const {
  const std::string at = "PRAM step " + std::to_string(step) + ": ";
  const std::string v = "v" + std::to_string(var);
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

ErewScan scan_erew(std::size_t nthreads, std::size_t nvars,
                   const std::vector<Step>& steps, ErewSink* sink) {
  ErewScan scan;
  bool nondet = false;  // kept out of `scan`, which report() reaches
  bool dyn_gather = false;
  auto report = [&](const ErewViolation& v) {
    ++scan.violations;
    if (!sink) throw std::invalid_argument(v.message(nvars));
    sink->violation(v);
  };
  // Epoch-tagged use marks: marks[var] == epoch means "already used this
  // step".  Reused across steps without clearing, which keeps the pass
  // O(total instruction operands) instead of O(nsteps * nvars) -- the
  // difference between milliseconds and minutes at graph scale.
  std::vector<std::uint32_t> reads(nvars, 0), writes(nvars, 0);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> segs;  // (base, len)
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const std::vector<Instr>& instrs = steps[s].instrs;
    if (instrs.size() != nthreads)
      report({ErewRule::kStepWidth, s});
    const std::uint32_t epoch = static_cast<std::uint32_t>(s) + 1;
    // Marks `var` as used by `operand` of thread t.
    auto use = [&](std::vector<std::uint32_t>& marks, std::size_t t,
                   Operand operand, std::uint32_t var) {
      if (var >= nvars)
        report({ErewRule::kOutOfRange, s, t, operand, var});
      else if (marks[var] == epoch)
        report({ErewRule::kShared, s, t, operand, var});
      else
        marks[var] = epoch;
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
        // they don't bump the read marks -- but the segment itself must be
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
    if (sink) sink->step_checked(s);
  }
  scan.nondet = nondet;
  scan.dyn_gather = dyn_gather;
  return scan;
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

// Traced work split of one exec::Executor run, taken through the public
// observer hooks only (Simulator::add_observer, set_agreement_observer).
//
// Every executed step lands in exactly one bucket:
//   clock reads / clock writes   steps on the phase clock's counter slots;
//   bin steps                    steps on the agreement bin array;
//   slot reads / slot writes     steps on the remaining memory, the program
//                                variables' generation slots (a write that
//                                leaves the cell exactly as it was, value and
//                                stamp, is a redundant Copy commit);
//   local steps                  steps that touch no memory.
// The buckets must sum exactly to ExecResult::total_work; the benchmark fails
// the run when they do not, so a step kind the split misses cannot hide.
//
// Attaching the split is not free.  The executor's own commit monitor already
// keeps every exec run on the simulator's instrumented path, but each step
// event still passes through count(): on sim_dag_n64 the traced run's
// trace.overhead_s measured about 0.5 s on 2 s (4-vCPU 2.1 GHz Xeon VM).
// The benchmark therefore takes layer times from untraced attempts only.
#pragma once

#include <cstdint>
#include <span>

#include "agreement/bin_array.h"
#include "agreement/protocol.h"
#include "clock/phase_clock.h"
#include "sim/observer.h"

namespace wallbench {

class WorkSplit final : public apex::sim::StepObserver,
                        public apex::agreement::AgreementObserver {
 public:
  WorkSplit(const apex::clockx::PhaseClock& clock,
            const apex::agreement::BinArray& bins)
      : clock_(&clock), bins_lo_(bins.base_addr()),
        bins_hi_(bins.base_addr() + bins.size_words()) {}

  std::uint64_t clock_reads = 0;
  std::uint64_t clock_writes = 0;
  std::uint64_t bin_steps = 0;
  std::uint64_t slot_reads = 0;
  std::uint64_t slot_writes = 0;
  std::uint64_t redundant_writes = 0;  ///< Subset of slot_writes.
  std::uint64_t local_steps = 0;

  std::uint64_t cycles = 0;
  std::uint64_t eval_cycles = 0;   ///< Cycles that evaluated f.
  std::uint64_t write_cycles = 0;  ///< Cycles that wrote a bin cell.

  std::uint64_t total() const noexcept {
    return clock_reads + clock_writes + bin_steps + slot_reads + slot_writes +
           local_steps;
  }

  void on_step(const apex::sim::StepEvent& ev) override { count(ev); }

  void on_steps(std::span<const apex::sim::StepEvent> evs) override {
    for (const apex::sim::StepEvent& ev : evs) count(ev);
  }

  void on_cycle(const apex::agreement::CycleRecord& c) override {
    ++cycles;
    eval_cycles += c.evaluated_f;
    write_cycles += c.wrote_cell >= 0;
  }

 private:
  void count(const apex::sim::StepEvent& ev) {
    using Kind = apex::sim::Op::Kind;
    const Kind k = ev.op.kind;
    if (k == Kind::Local) {
      ++local_steps;
    } else if (k != Kind::Read && k != Kind::Write) {
      return;  // Falls in no bucket, so the exact-sum check catches it.
    } else if (clock_->owns(ev.op.addr)) {
      ++(k == Kind::Read ? clock_reads : clock_writes);
    } else if (ev.op.addr >= bins_lo_ && ev.op.addr < bins_hi_) {
      ++bin_steps;
    } else if (k == Kind::Read) {
      ++slot_reads;
    } else {
      ++slot_writes;
      redundant_writes += ev.before == ev.after;
    }
  }

  const apex::clockx::PhaseClock* clock_;
  std::size_t bins_lo_;
  std::size_t bins_hi_;
};

}  // namespace wallbench

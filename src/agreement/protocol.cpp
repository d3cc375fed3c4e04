#include "agreement/protocol.h"

namespace apex::agreement {

sim::SubTask<void> agreement_cycle(sim::Ctx& ctx, AgreementRuntime& rt,
                                   sim::Word phase) {
  const BinArray& bins = *rt.bins;
  const std::uint64_t start_steps = ctx.steps();
  CycleRecord rec = open_cycle(ctx, phase);

  // Line 1: choose a bin uniformly at random (one local step: the draw).
  const std::size_t i = draw_bin(ctx, bins);
  co_await ctx.local();
  rec.bin = i;

  // Lines 2-4: binary search for the first empty cell.
  BinSearch search(bins, i, phase);
  while (search.searching()) {
    const sim::Cell c = co_await ctx.read(search.probe());
    search.observe(c);
  }
  const std::size_t j = search.first_empty();
  rec.d_time = ctx.simulator().total_work();

  const sim::Word stamp = write_stamp(phase);
  if (j == 0) {
    // Line 5-9: first cell empty — evaluate f_i^(π); write it unless the
    // evaluation could not complete (operand unavailable).
    const TaskResult v = co_await rt.task(ctx, i, phase);
    if (v.has_value()) {
      co_await ctx.write(bins.addr(i, 0), *v, stamp);
      rec.wrote_cell = 0;
      rec.wrote_value = *v;
      rec.evaluated_f = true;
    }
  } else if (j < bins.cells_per_bin()) {
    // Lines 10-11: copy forward from the previous cell, re-read.
    const sim::Cell prev = co_await ctx.read(bins.addr(i, j - 1));
    const std::optional<sim::Word> v = copy_forward(prev, phase);
    if (v.has_value()) {
      co_await ctx.write(bins.addr(i, j), *v, stamp);
      rec.wrote_cell = static_cast<int>(j);
      rec.wrote_value = *v;
    }
  }
  // j == B: bin already full; nothing to write.

  for (std::uint64_t k = pad_steps(ctx.steps() - start_steps, rt.cfg.omega());
       k != 0; --k)
    co_await ctx.local();
  close_cycle(ctx, rt.observer, rec);
}

sim::ProcTask agreement_proc(sim::Ctx& ctx, AgreementRuntime& rt) {
  const std::uint64_t clock_stride = lg(rt.cfg.n);
  sim::Word phase = 1;
  for (std::uint64_t cycle = 0;; ++cycle) {
    // Clock maintenance every lg n cycles, staggered by processor id so
    // that under a lockstep schedule the Θ(log n)-step Read-Clock blocks
    // do not all land in the same window (which would starve a whole
    // stage of complete cycles — see bench E3).
    if ((cycle + ctx.id()) % clock_stride == 0) {
      co_await rt.clock->update(ctx);
      const std::uint64_t tick = co_await rt.clock->read(ctx);
      const sim::Word new_phase = tick + 1;
      if (new_phase != phase) {
        phase = new_phase;
        if (rt.observer != nullptr) {
          ctx.simulator().flush_observers();  // see close_cycle
          rt.observer->on_phase_enter(ctx.id(), phase);
        }
      }
    }
    co_await agreement_cycle(ctx, rt, phase);
  }
}

}  // namespace apex::agreement

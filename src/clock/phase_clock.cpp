#include "clock/phase_clock.h"

#include <algorithm>
#include <stdexcept>

#include "check/mutation.h"

namespace apex::clockx {

PhaseClock::PhaseClock(sim::Memory& mem, ClockConfig cfg) : mem_(&mem) {
  if (cfg.nprocs == 0) throw std::invalid_argument("PhaseClock: nprocs == 0");
  if (cfg.alpha <= 0.0) throw std::invalid_argument("PhaseClock: alpha <= 0");
  m_ = cfg.nprocs;
  s_ = static_cast<std::size_t>(3 * lg(cfg.nprocs));
  tau_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(cfg.alpha * static_cast<double>(cfg.nprocs)));
  base_ = mem.extend(m_);
  reader_clamp_.assign(cfg.nprocs, 0);
}

sim::SubTask<void> PhaseClock::update(sim::Ctx& ctx) {
  const std::size_t addr = draw_slot(ctx);
  const sim::Cell c = co_await ctx.read(addr);
  co_await ctx.write(addr, update_value(addr, c.value), 0);
}

sim::Word PhaseClock::update_value(std::size_t addr, sim::Word seen) {
  sim::Word inc = 1;
  if (check::mutation_enabled(check::Mutation::kClockDoubleIncrement))
    inc = 2;
  if (listener_ != nullptr) note_write(addr, seen + inc);
  return seen + inc;
}

void PhaseClock::note_write(std::size_t addr, sim::Word value) {
  const sim::Word cur = mem_->at(addr).value;
  if (value <= cur) return;
  true_total_ += value - cur;
  const std::uint64_t now = true_total_ / tau_;
  while (true_tick_ < now) listener_->on_tick(++true_tick_);
}

sim::SubTask<std::uint64_t> PhaseClock::read(sim::Ctx& ctx) {
  std::uint64_t sampled = 0;
  for (std::size_t k = 0; k < s_; ++k) {
    const sim::Cell c = co_await ctx.read(draw_slot(ctx));
    sampled += c.value;
  }
  // One local step: scale the sample to an estimate and divide by τ.
  co_await ctx.local();
  co_return read_estimate(ctx.id(), sampled);
}

std::uint64_t PhaseClock::read_estimate(std::size_t proc,
                                        std::uint64_t sampled) {
  const double est_total = static_cast<double>(sampled) *
                           (static_cast<double>(m_) / static_cast<double>(s_));
  const std::uint64_t tick =
      static_cast<std::uint64_t>(est_total) / tau_;
  auto& clamp = reader_clamp_.at(proc);
  clamp = std::max(clamp, tick);
  return clamp;
}

std::uint64_t PhaseClock::exact_total() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < m_; ++i) total += mem_->at(base_ + i).value;
  return total;
}

}  // namespace apex::clockx

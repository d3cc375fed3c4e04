#include "agreement/testbed.h"

namespace apex::agreement {

namespace {

// Coroutine bodies are free functions with by-value parameters: coroutine
// lambdas with captures are a lifetime hazard (the frame outlives the
// lambda object), so the wrappers below return immediately-constructed
// SubTasks instead.
sim::SubTask<TaskResult> uniform_draw(sim::Ctx& ctx, sim::Word k) {
  co_await ctx.local();  // the random draw is one basic computation
  co_return TaskResult{ctx.rng().below(k)};
}

sim::SubTask<TaskResult> coin_draw(sim::Ctx& ctx, double p) {
  co_await ctx.local();
  co_return TaskResult{ctx.rng().coin(p) ? 1 : 0};
}

sim::SubTask<TaskResult> identity_value(sim::Ctx& ctx, std::size_t i) {
  co_await ctx.local();
  co_return TaskResult{static_cast<sim::Word>(i)};
}

}  // namespace

TaskFn uniform_task(sim::Word k) {
  return [k](sim::Ctx& ctx, std::size_t, sim::Word) {
    return uniform_draw(ctx, k);
  };
}

SupportFn uniform_support(sim::Word k) {
  return [k](std::size_t, sim::Word v) { return v < k; };
}

TaskFn coin_task(double p) {
  return [p](sim::Ctx& ctx, std::size_t, sim::Word) {
    return coin_draw(ctx, p);
  };
}

SupportFn coin_support() {
  return [](std::size_t, sim::Word v) { return v <= 1; };
}

TaskFn identity_task() {
  return [](sim::Ctx& ctx, std::size_t i, sim::Word) {
    return identity_value(ctx, i);
  };
}

SupportFn identity_support() {
  return [](std::size_t i, sim::Word v) { return v == static_cast<sim::Word>(i); };
}

AgreementTestbed::AgreementTestbed(TestbedConfig cfg, TaskFn task,
                                   SupportFn support)
    : cfg_(cfg) {
  sim::SimConfig sc;
  sc.nprocs = cfg.n;
  sc.memory_words = 0;
  sc.seed = cfg.seed;
  sc.engine = cfg.engine;
  apex::SeedTree seeds{cfg.seed};
  auto schedule = cfg.schedule_factory
                      ? cfg.schedule_factory(cfg.n, seeds.schedule())
                      : sim::make_schedule(cfg.schedule, cfg.n,
                                           seeds.schedule());
  sim_ = std::make_unique<sim::Simulator>(sc, std::move(schedule));

  clockx::ClockConfig cc;
  cc.nprocs = cfg.n;
  cc.alpha = cfg.clock_alpha;
  clock_ = std::make_unique<clockx::PhaseClock>(sim_->memory(), cc);

  bins_ = std::make_unique<BinArray>(sim_->memory(), cfg.n,
                                     BinArray::cells_for(cfg.n, cfg.beta));

  rt_.cfg.n = cfg.n;
  rt_.cfg.beta = cfg.beta;
  rt_.bins = bins_.get();
  rt_.clock = clock_.get();
  rt_.task = std::move(task);
  rt_.observer = &obs_mux_;

  checker_ = std::make_unique<TheoremChecker>(*bins_, std::move(support));
  audit_ = std::make_unique<ClobberAudit>(*bins_, *clock_);
  sim_->add_observer(audit_.get());

  for (std::size_t p = 0; p < cfg.n; ++p)
    sim_->spawn([this](sim::Ctx& ctx) { return agreement_proc(ctx, rt_); });
}

AgreementTestbed::Result AgreementTestbed::run_until_agreement(
    std::uint64_t max_work, sim::Word phase) {
  // Check the predicate about once per n work units: each check scans the
  // upper halves (O(n log n) cells), so checking too often would dominate
  // wall-clock time without affecting the measured model work.
  const std::uint64_t interval =
      std::max<std::uint64_t>(64, cfg_.n / 2);
  const auto res = sim_->run(
      max_work, [&] { return checker_->satisfied(phase); }, interval);
  return Result{sim_->total_work(), res.predicate_hit};
}

void AgreementTestbed::run_more(std::uint64_t work) { sim_->run(work); }

}  // namespace apex::agreement

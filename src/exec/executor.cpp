#include "exec/executor.h"

#include <optional>

#include "util/math.h"

namespace apex::exec {

namespace {

/// G generation slots per program variable (the >= 3 bound is argued at the
/// commit audit below).
constexpr std::size_t kGenerations = 4;

/// Bin sizing (nondeterministic scheme): cells per bin = max(4, kBeta·lg n).
constexpr std::size_t kBeta = 8;

}  // namespace

const char* scheme_name(Scheme s) noexcept {
  return s == Scheme::kNondeterministic ? "nondet" : "det";
}

// ---------------------------------------------------------------------------
// Impl: memory layout, task procedures, driver, and the subphase monitor.
// ---------------------------------------------------------------------------

struct Executor::Impl {
  const pram::Program* prog;
  Scheme scheme;
  sim::Simulator* sim;

  std::unique_ptr<clockx::PhaseClock> clock;
  std::unique_ptr<agreement::BinArray> bins;  // nondet scheme only
  std::size_t var_base = 0;
  std::size_t newval_base = 0;                // det scheme only
  std::uint64_t omega = 0;                    // nondet: steps per cycle
  agreement::AgreementObserver* observer = nullptr;  // nondet scheme only

  // Diagnostics (single-threaded simulation: plain counters suffice).
  std::uint64_t stamp_misses = 0;
  // Work split: ctx.steps() deltas around each clock block, Compute task
  // and Copy task, so the step awaiters carry no extra store.
  std::uint64_t clock_work = 0;
  std::uint64_t compute_work = 0;
  std::uint64_t copy_work = 0;

  std::size_t n() const { return prog->nthreads(); }
  std::size_t T() const { return prog->nsteps(); }

  /// Address of generation slot for (variable, writer-stamp).
  std::size_t var_addr(std::uint32_t var, sim::Word stamp) const {
    return var_base + static_cast<std::size_t>(var) * kGenerations +
           static_cast<std::size_t>(stamp % kGenerations);
  }

  std::size_t newval_addr(std::size_t i) const { return newval_base + i; }

  // --- In-model task procedures ------------------------------------------

  /// Read one operand variable, accepting only the statically expected
  /// writer stamp.  Returns nullopt on a stale/missing stamp.
  sim::SubTask<agreement::TaskResult> read_operand(sim::Ctx& ctx,
                                                   std::uint32_t var,
                                                   std::uint32_t writer) {
    const sim::Word want = pram::stamp_of_writer(writer);
    const sim::Cell c = co_await ctx.read(var_addr(var, want));
    if (c.stamp != want) {
      ++stamp_misses;
      co_return agreement::TaskResult{};
    }
    co_return agreement::TaskResult{c.value};
  }

  /// Evaluate instruction `i` of step `s` (reads operands, one local step
  /// to compute / draw).  Costs at most 4 atomic steps — 5 when the
  /// program contains kGatherDyn (3 operand reads + 1 segment read).
  sim::SubTask<agreement::TaskResult> eval_task(sim::Ctx& ctx, std::size_t s,
                                                std::size_t i) {
    const pram::Instr& ins = prog->step(s).instrs[i];
    if (ins.op == pram::OpCode::kNop) {
      co_await ctx.local();
      co_return agreement::TaskResult{0};
    }
    const auto& w = prog->writers(s, i);
    const int r = pram::reads_of(ins.op);
    sim::Word xv = 0, yv = 0, cv = 0;
    if (r >= 1) {
      const auto v = co_await read_operand(ctx, ins.x, w.x);
      if (!v) co_return agreement::TaskResult{};
      xv = *v;
    }
    if (r >= 2) {
      const auto v = co_await read_operand(ctx, ins.y, w.y);
      if (!v) co_return agreement::TaskResult{};
      yv = *v;
    }
    if (r >= 3) {
      const auto v = co_await read_operand(ctx, ins.c, w.c);
      if (!v) co_return agreement::TaskResult{};
      cv = *v;
    }
    if (ins.op == pram::OpCode::kGatherDyn) {
      // Data-dependent addressing: index, base offset and bound came from
      // the x/y/c operand reads above and pick the target variable at run
      // time.  The writer table answers "who last wrote it before step s"
      // for EVERY variable, so the timestamp discipline is unchanged — only
      // the table lookup moves to run time.  The resolved read becomes y.
      const std::uint32_t target =
          pram::gather_dyn_target(ins, xv + yv, cv);
      yv = 0;
      if (target != pram::kGatherOutOfRange) {
        const auto v = co_await read_operand(
            ctx, target, prog->last_writer_before(s, target));
        if (!v) co_return agreement::TaskResult{};
        yv = *v;
      }
    }
    co_await ctx.local();  // the basic computation / random draw
    co_return agreement::TaskResult{
        pram::eval_instr(ins, xv, yv, cv, ctx.rng())};
  }

  /// Deterministic-scheme Compute: pick a random task, evaluate it, write
  /// NewVal[i] directly (no agreement — the baseline's fatal flaw for
  /// nondeterministic f).  The first write of each (step, task) is recorded
  /// as its `produced` value in the same grant as the write (see Monitor).
  sim::SubTask<void> det_compute_once(sim::Ctx& ctx, std::size_t s,
                                      sim::Word stamp) {
    const std::size_t i = static_cast<std::size_t>(ctx.rng().below(n()));
    co_await ctx.local();
    const auto v = co_await eval_task(ctx, s, i);
    if (!v) co_return;
    if (stamp > monitor.newval_stamp_seen[i]) {
      monitor.newval_stamp_seen[i] = stamp;
      monitor.produced[s][i] = *v;
    }
    co_await ctx.write(newval_addr(i), *v, stamp);
  }

  /// Per-processor driver: interleave clock maintenance with random task
  /// execution for the current subphase; exit once the clock passes 2T.
  ///
  /// A processor runs in this one coroutine frame.  Update-Clock,
  /// Read-Clock, the agreement cycle and the Copy task are written inline,
  /// over the same helpers PhaseClock::update/read and
  /// agreement::agreement_cycle are built from, so each grant resumes one
  /// frame and allocates nothing.  Only f (eval_task, entered by the cycles
  /// that find cell 0 empty) and the deterministic baseline's Compute task
  /// are nested SubTasks.  See docs/ARCHITECTURE.md, "The simulator hot
  /// path".
  sim::ProcTask scheme_proc(sim::Ctx& ctx) {
    clockx::PhaseClock& clk = *clock;
    const bool nondet = scheme == Scheme::kNondeterministic;
    const std::uint64_t stride = lg(n());
    const std::uint64_t end_tick = 2 * static_cast<std::uint64_t>(T());
    std::uint64_t tick = 0;
    // Clock maintenance before every `stride`-th task, staggered by id as
    // in agreement_proc (before task k when (k + id) % stride == 0): avoids
    // synchronized clock-read blocks under lockstep schedules.
    std::uint64_t tasks_to_clock = (stride - ctx.id() % stride) % stride;
    for (;;) {
      if (tasks_to_clock == 0) {
        tasks_to_clock = stride;
        const std::uint64_t start = ctx.steps();
        // Update-Clock.
        const std::size_t slot = clk.draw_slot(ctx);
        const sim::Cell seen = co_await ctx.read(slot);
        co_await ctx.write(slot, clk.update_value(slot, seen.value), 0);
        // Read-Clock.
        std::uint64_t sampled = 0;
        for (std::size_t k = 0; k < clk.samples(); ++k) {
          const sim::Cell c = co_await ctx.read(clk.draw_slot(ctx));
          sampled += c.value;
        }
        co_await ctx.local();
        tick = clk.read_estimate(ctx.id(), sampled);
        clock_work += ctx.steps() - start;
        if (tick >= end_tick) co_return;
      }
      --tasks_to_clock;
      if (tick >= end_tick) {
        // Only a zero-step program gets here: it idles until its first
        // Read-Clock ends the run.
        co_await ctx.local();
        clock_work += 1;
        continue;
      }
      const std::size_t s = static_cast<std::size_t>(tick / 2);
      const sim::Word stamp =
          pram::stamp_of_step(static_cast<std::uint32_t>(s));
      const std::uint64_t start = ctx.steps();
      if (tick % 2 == 0 && nondet) {
        // One agreement cycle: agreement::agreement_cycle, with f = eval_task.
        const agreement::BinArray& b = *bins;
        agreement::CycleRecord rec = agreement::open_cycle(ctx, stamp);
        const std::size_t i = agreement::draw_bin(ctx, b);
        co_await ctx.local();
        rec.bin = i;
        agreement::BinSearch search(b, i, stamp);
        while (search.searching()) {
          const sim::Cell c = co_await ctx.read(search.probe());
          search.observe(c);
        }
        const std::size_t j = search.first_empty();
        rec.d_time = sim->total_work();
        const sim::Word bin_stamp = agreement::write_stamp(stamp);
        if (j == 0) {
          const agreement::TaskResult v = co_await eval_task(ctx, s, i);
          if (v.has_value()) {
            co_await ctx.write(b.addr(i, 0), *v, bin_stamp);
            rec.wrote_cell = 0;
            rec.wrote_value = *v;
            rec.evaluated_f = true;
          }
        } else if (j < b.cells_per_bin()) {
          const sim::Cell prev = co_await ctx.read(b.addr(i, j - 1));
          const std::optional<sim::Word> v =
              agreement::copy_forward(prev, stamp);
          if (v.has_value()) {
            co_await ctx.write(b.addr(i, j), *v, bin_stamp);
            rec.wrote_cell = static_cast<int>(j);
            rec.wrote_value = *v;
          }
        }
        for (std::uint64_t k =
                 agreement::pad_steps(ctx.steps() - start, omega);
             k != 0; --k)
          co_await ctx.local();
        agreement::close_cycle(ctx, observer, rec);
        compute_work += ctx.steps() - start;
      } else if (tick % 2 == 0) {
        co_await det_compute_once(ctx, s, stamp);
        compute_work += ctx.steps() - start;
      } else {
        // One Copy task: pick a random thread, fetch its NewVal (the first
        // filled upper-half cell of its bin under the nondeterministic
        // scheme, the NewVal array under the baseline) and commit it to
        // z_i's generation slot.
        const std::size_t i = static_cast<std::size_t>(ctx.rng().below(n()));
        co_await ctx.local();
        const pram::Instr& ins = prog->step(s).instrs[i];
        if (pram::writes_dest(ins.op)) {
          std::optional<sim::Word> v;
          if (nondet) {
            agreement::UpperHalfScan scan(*bins, i, stamp);
            while (scan.scanning()) {
              const sim::Cell c = co_await ctx.read(scan.probe());
              scan.observe(c);
            }
            v = scan.value();
          } else {
            const sim::Cell c = co_await ctx.read(newval_addr(i));
            if (c.stamp == stamp) v = c.value;
          }
          if (v.has_value())
            co_await ctx.write(var_addr(ins.z, stamp), *v, stamp);
        }
        copy_work += ctx.steps() - start;
      }
    }
  }

  // --- Out-of-band subphase monitor ----------------------------------------

  /// Listens to the phase clock's TRUE tick (PhaseClock::set_listener, run
  /// from inside update() in the grant of the crossing write) and audits
  /// each step's COMMITTED values one full phase after its Copy subphase
  /// ended.
  ///
  /// Why the delay: processors act on *estimated* ticks that lag/lead the
  /// true tick by a bounded amount, so copies for step s legitimately
  /// straggle past the true Copy->Compute boundary.  Snapshotting agreed
  /// values right at the boundary (the original design) raced those
  /// stragglers: it both overcounted `incomplete` and recorded stale
  /// `produced` values for runs whose final memory was perfectly correct —
  /// the long irregular workloads (bfs: ~230 subphases) hit this
  /// systematically.  Auditing the generation slot at the close of tick
  /// 2s+3 is race-free on both sides: estimate skew is well under a full
  /// phase, so every straggling copy of step s has landed, and the
  /// earliest possible overwrite of the slot (the Copy subphase of step
  /// s+G, G >= 3 asserted below, at estimated tick 2s+2G+1)
  /// cannot have started even from a ~2-tick estimate leader.  The
  /// committed slot is also the authoritative agreed value — copies only
  /// ever commit values read from completed agreements — so `produced` is
  /// exactly what downstream steps can observe.
  ///
  /// The DETERMINISTIC baseline has no agreement, hence no unique NewVal:
  /// re-executions of a randomized task overwrite NewVal[i] with fresh
  /// draws, and which one a copy commits is a race (the paper's motivating
  /// flaw).  For that scheme `produced` records the FIRST NewVal write of
  /// each (step, task) — captured by det_compute_once in the grant of the
  /// write, race-free — so a later redraw that gets committed shows up as
  /// a genuine consistency violation instead of being laundered by reading
  /// the final slot back.
  struct Monitor final : public clockx::TickListener {
    // A processor whose estimate leads true time by the tolerated ~2 ticks
    // may start the Copy subphase of step s+G (reusing the slot) at true
    // tick 2(s+G)-1.  G=2 would put that reuse at 2s+3 — racing the audit
    // of step s at the close of tick 2s+3.
    static_assert(kGenerations >= 3,
                  "the delayed commit audit races slot reuse below G = 3");

    Impl* im = nullptr;
    std::uint64_t tick = 0;
    std::vector<std::vector<pram::Word>> produced;
    std::uint64_t incomplete = 0;
    /// Det scheme: highest NewVal stamp already recorded per task
    /// (first-write-wins per stamp; late stale-stamp writes are ignored).
    std::vector<sim::Word> newval_stamp_seen;

    void init(Impl* impl) {
      im = impl;
      produced.assign(im->T(), std::vector<pram::Word>(im->n(), 0));
      if (im->scheme == Scheme::kDeterministic)
        newval_stamp_seen.assign(im->n(), 0);
    }

    /// Ticks the monitor must close to have audited every step: the audit
    /// of step T-1 happens when tick 2(T-1)+3 = 2T+1 closes.
    std::uint64_t end_tick() const { return 2 * im->T() + 2; }

    void on_tick(std::uint64_t now) override {
      while (tick < now && tick < end_tick()) finalize_subphase();
    }

    /// Close subphase `tick`: audit the step whose Copy subphase ended a
    /// full phase ago, then advance.
    void finalize_subphase() {
      if (tick >= 3 && tick % 2 == 1) {
        const std::size_t s = static_cast<std::size_t>((tick - 3) / 2);
        if (s < im->T())
          audit_commits(s,
                        pram::stamp_of_step(static_cast<std::uint32_t>(s)));
      }
      ++tick;
    }

    /// Read step s's committed generation slots: a matching stamp yields
    /// the agreed value (nondet scheme — the det baseline keeps its
    /// first-evaluation capture, see the struct comment); a missing one is
    /// unfinished work (the scheme's designed w.h.p. failure mode,
    /// surfaced to the caller).
    void audit_commits(std::size_t s, sim::Word stamp) {
      for (std::size_t i = 0; i < im->n(); ++i) {
        const pram::Instr& ins = im->prog->step(s).instrs[i];
        if (!pram::writes_dest(ins.op)) continue;
        const sim::Cell c = im->sim->memory().at(im->var_addr(ins.z, stamp));
        if (c.stamp == stamp) {
          if (im->scheme == Scheme::kNondeterministic) produced[s][i] = c.value;
        } else {
          ++incomplete;
        }
      }
    }
  };

  Monitor monitor;
};

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

Executor::Executor(const pram::Program& program, Scheme scheme, ExecConfig cfg)
    : prog_(&program), scheme_(scheme) {
  const std::size_t n = program.nthreads();

  apex::SeedTree seeds{cfg.seed};
  sim::SimConfig sc;
  sc.nprocs = n;
  sc.memory_words = 0;
  sc.seed = cfg.seed;
  sc.engine = cfg.engine;
  auto schedule =
      cfg.schedule_factory
          ? cfg.schedule_factory(n, seeds.schedule())
          : sim::make_schedule(cfg.schedule, n, seeds.schedule());
  sim_ = std::make_unique<sim::Simulator>(sc, std::move(schedule));

  impl_ = std::make_unique<Impl>();
  impl_->prog = prog_;
  impl_->scheme = scheme_;
  impl_->sim = sim_.get();

  clockx::ClockConfig cc;
  cc.nprocs = n;
  cc.alpha = cfg.clock_alpha;
  impl_->clock = std::make_unique<clockx::PhaseClock>(sim_->memory(), cc);

  impl_->var_base =
      sim_->memory().extend(program.nvars() * kGenerations);

  if (scheme_ == Scheme::kNondeterministic) {
    impl_->bins = std::make_unique<agreement::BinArray>(
        sim_->memory(), n, agreement::BinArray::cells_for(n, kBeta));
    agreement::AgreementConfig acfg;
    acfg.n = n;
    acfg.beta = kBeta;
    // <= 3 operand reads + 1 local; a kGatherDyn adds one segment read.
    acfg.compute_steps = program.has_dyn_gather() ? 5 : 4;
    impl_->omega = acfg.omega();
  } else {
    impl_->newval_base = sim_->memory().extend(n);
  }

  impl_->monitor.init(impl_.get());
  impl_->clock->set_listener(&impl_->monitor);

  Impl* im = impl_.get();
  for (std::size_t p = 0; p < n; ++p)
    sim_->spawn([im](sim::Ctx& ctx) { return im->scheme_proc(ctx); });
}

Executor::~Executor() = default;

clockx::PhaseClock& Executor::clock() noexcept { return *impl_->clock; }

agreement::BinArray* Executor::bins() noexcept { return impl_->bins.get(); }

void Executor::set_agreement_observer(
    agreement::AgreementObserver* obs) noexcept {
  impl_->observer = obs;
}

std::uint64_t Executor::default_budget(const pram::Program& p) {
  const std::size_t n = p.nthreads();
  agreement::AgreementConfig acfg;
  acfg.n = n;
  acfg.compute_steps = p.has_dyn_gather() ? 5 : 4;
  // One tick costs ~α·n·lg n cycles of ω steps each, plus clock traffic
  // (~ one update + one read per lg n cycles).  Budget 4x the expected
  // 2T-tick run, plus slack for tiny programs.
  const double per_tick = ExecConfig{}.clock_alpha * static_cast<double>(n) *
                          lg(n) * static_cast<double>(acfg.omega() + 4);
  return static_cast<std::uint64_t>(per_tick * 2.0 *
                                    static_cast<double>(p.nsteps()) * 4.0) +
         1'000'000;
}

ExecResult Executor::run(std::uint64_t max_work) {
  const auto res = sim_->run(max_work);
  ExecResult out;
  out.completed = res.all_finished;
  out.total_work = sim_->total_work();
  out.stamp_misses = impl_->stamp_misses;
  out.clock_work = impl_->clock_work;
  out.compute_work = impl_->compute_work;
  out.copy_work = impl_->copy_work;

  if (out.completed) {
    // Finalize any subphases whose boundary the monitor has not yet seen
    // (processors exit on estimated ticks, which can lead the exact tick),
    // including the trailing audit ticks past 2T.
    while (impl_->monitor.tick < impl_->monitor.end_tick())
      impl_->monitor.finalize_subphase();
  }
  out.produced = impl_->monitor.produced;
  out.incomplete_tasks = impl_->monitor.incomplete;

  // Extract final variable values: the freshest generation slot wins.
  out.memory.assign(prog_->nvars(), 0);
  for (std::size_t v = 0; v < prog_->nvars(); ++v) {
    sim::Word best_stamp = 0;
    sim::Word best_value = 0;
    for (std::size_t g = 0; g < kGenerations; ++g) {
      const sim::Cell c =
          sim_->memory().at(impl_->var_base + v * kGenerations + g);
      if (c.stamp >= best_stamp) {
        best_stamp = c.stamp;
        best_value = c.value;
      }
    }
    out.memory[v] = best_value;
  }
  return out;
}

CheckedRun run_checked(const pram::Program& p, Scheme scheme, ExecConfig cfg,
                       std::uint64_t max_work) {
  Executor ex(p, scheme, cfg);
  if (max_work == 0) max_work = Executor::default_budget(p);
  CheckedRun out;
  out.result = ex.run(max_work);
  if (!out.result.completed) {
    out.consistency_error = "execution did not complete within budget";
    return out;
  }
  out.consistency_error = pram::check_execution_consistency(
      p, std::vector<pram::Word>(p.nvars(), 0), out.result.produced,
      out.result.memory);
  return out;
}

}  // namespace apex::exec

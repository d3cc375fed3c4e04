// E12 — the protocol on real threads (Fig. 4 sanity / host validation).
//
// The paper's model is asynchronous shared memory; our simulator realizes
// it with an explicit adversary, and this experiment closes the loop on a
// REAL asynchronous system: std::threads under genuine OS preemption, with
// (value, stamp) packed into one atomic 64-bit word to honor the paper's
// word+timestamp atomic-access postulate.
//
// Measurement: for P = T in {2, 4, 8}, run standalone agreement — a
// one-step program, one rand_below draw per processor — on HostExecutor and
// check the Theorem-1 scannable properties (accessibility + uniqueness) in
// every bin at quiescence (HostExecutor::agreed_values); report work and
// throughput.  Every configuration must reach agreement — including
// oversubscribed ones (more threads than cores), which maximize preemption
// asynchrony.
//
// Second table: the FULL execution scheme on real threads, regular vs
// irregular kernels.  A regular lockstep kernel (prefix) and an irregular
// data-dependent one (dag — random dataflow, plus spmv's computed-index
// gathers at n=8) run through HostExecutor on the default thread count;
// every run must pass the workload's final-memory verdict (audit-clean
// runs only; lost_commits, the detected ultra-preemption damage, is
// reported and retried by host::run_until_clean — see host_executor.h).
//
// Third table: the SCALING STUDY the virtualized executor exists for.
// P logical processors (up to the registry's scale_ns instances, 64/128)
// multiplexed onto T <= 8 OS threads, with steps/s (Mwork/s) plus the
// lost/repaired commit columns on every row.  The one-thread-per-processor
// design bounded P by what the OS could sensibly timeslice; this grid is
// exactly the configurations it could never run.  The graph-scale
// instances (n = 1e4) are timed by `apexcli perfbench`'s graph_rows and
// checked by tests/host/graph_scale_test.cpp.
//
// Note on --jobs: each trial already spawns its own thread team, and the
// wall-clock/throughput columns are timing measurements, so running trials
// concurrently oversubscribes the machine and perturbs them.  Leave
// --jobs=1 (the default) when the absolute numbers matter.
#include "bench/common.h"
#include "host/host_executor.h"
#include "pram/workloads.h"

using namespace apex;
using namespace apex::host;

namespace {

/// One host trial's verdict columns: an audit-clean run of the workload at
/// n (after run_until_clean's retries) whose memory passes its check.
batch::TrialResult host_trial(const pram::WorkloadSpec& spec, std::size_t n,
                              const HostExecConfig& cfg) {
  batch::TrialResult r;
  const HostRun run = run_until_clean(spec.make(n), cfg);
  const HostExecResult& res = run.result;
  if (run.repaired_commits != 0)
    r.count("repaired", static_cast<double>(run.repaired_commits));
  // Every attempt but a clean last one was damaged.
  r.count("damaged", run.attempts - (res.lost_commits == 0 ? 1 : 0));
  if (!res.completed || res.lost_commits != 0 ||
      !spec.check(n, res.memory).empty()) {
    r.ok = false;
    return r;
  }
  r.count("ok");
  r.sample("work", static_cast<double>(res.total_work));
  r.sample("wall", res.wall_seconds * 1000.0);
  r.sample("wps", static_cast<double>(res.total_work) /
                      std::max(res.wall_seconds, 1e-9) / 1e6);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("E12: bin-array agreement on real std::threads",
                "the protocol must reach a unanimous, accessible bin array "
                "under genuine OS-scheduler asynchrony, at every thread count");

  const std::vector<std::size_t> thread_counts = {2, 4, 8};
  const int reps = opt.full ? 3 * opt.seeds : opt.seeds;

  const auto groups =
      opt.sweep(thread_counts, reps, [](std::size_t threads, int s) {
        batch::TrialResult r;
        pram::ProgramBuilder b(threads, threads);
        b.step().all([](std::size_t i) {
          return pram::Instr::rand_below(static_cast<std::uint32_t>(i), 1000);
        });
        const pram::Program p = b.build();
        HostExecConfig cfg;
        cfg.os_threads = threads;
        cfg.seed = 12'000 + static_cast<std::uint64_t>(s);
        HostExecutor ex(p, cfg);
        const auto res = ex.run();
        if (!res.completed || res.lost_commits != 0) {
          r.ok = false;
          return r;
        }
        // Every bin agreed, on the committed value, inside the support.
        const auto agreed = ex.agreed_values(0);
        for (std::size_t i = 0; i < threads; ++i)
          if (agreed[i] != res.memory[i] || res.memory[i] >= 1000) {
            r.ok = false;
            return r;
          }
        r.count("sat");
        r.sample("wps", static_cast<double>(res.total_work) /
                            std::max(res.wall_seconds, 1e-9) / 1e6);
        r.sample("work", static_cast<double>(res.total_work));
        r.sample("wall", res.wall_seconds * 1000.0);
        return r;
      });

  Table t({"threads", "runs", "satisfied", "Mwork/s", "work_mean",
           "wall_ms_mean"});
  bool all_ok = true;

  for (std::size_t g = 0; g < thread_counts.size(); ++g) {
    const auto& group = groups[g];
    if (!group.all_ok()) all_ok = false;
    const int runs = static_cast<int>(group.trials());
    const int sat = static_cast<int>(group.count("sat"));
    t.row()
        .cell(static_cast<std::uint64_t>(thread_counts[g]))
        .cell(runs)
        .cell(sat)
        .cell(sat ? group.sample("wps").mean() : 0.0, 2)
        .cell(sat ? group.sample("work").mean() : 0.0, 0)
        .cell(sat ? group.sample("wall").mean() : 0.0, 2);
    if (sat != runs) all_ok = false;
  }
  opt.emit(t);

  // ---- full scheme: regular vs irregular PRAM kernels on real threads ----

  struct WlPoint {
    const char* workload;
    std::size_t n;
  };
  const std::vector<WlPoint> wl_grid = {
      {"prefix", 4}, {"prefix", 8}, {"dag", 4}, {"dag", 8}, {"spmv", 8}};

  const auto wl_groups = opt.sweep(wl_grid, opt.seeds, [](const WlPoint& pt,
                                                          int s) {
    const auto* spec = pram::find_workload(pt.workload);
    HostExecConfig cfg;
    cfg.seed = 12'500 + static_cast<std::uint64_t>(s);
    cfg.timeout_seconds = 60.0;
    return host_trial(*spec, pt.n, cfg);
  });

  Table wt({"kernel", "class", "n", "runs", "ok", "damaged", "work_mean",
            "wall_ms", "Mwork/s"});
  for (std::size_t g = 0; g < wl_grid.size(); ++g) {
    const auto& group = wl_groups[g];
    if (!group.all_ok()) all_ok = false;
    const auto* spec = pram::find_workload(wl_grid[g].workload);
    const int ok = static_cast<int>(group.count("ok"));
    wt.row()
        .cell(wl_grid[g].workload)
        .cell(spec->irregular ? "irregular" : "regular")
        .cell(static_cast<std::uint64_t>(wl_grid[g].n))
        .cell(static_cast<std::uint64_t>(group.trials()))
        .cell(ok)
        .cell(static_cast<std::uint64_t>(group.count("damaged")))
        .cell(ok ? group.sample("work").mean() : 0.0, 0)
        .cell(ok ? group.sample("wall").mean() : 0.0, 2)
        .cell(ok ? group.sample("wps").mean() : 0.0, 2);
  }
  opt.emit(wt);

  // ---- scaling study: P virtual processors on T OS threads ----------------

  struct ScalePoint {
    const char* workload;
    std::size_t P;       ///< Logical processors.
    std::size_t T;       ///< OS worker threads.
  };
  std::vector<ScalePoint> sgrid = {
      {"spmv", 16, 1}, {"spmv", 16, 2}, {"spmv", 64, 1}, {"spmv", 64, 2},
      {"spmv", 64, 4}, {"spmv", 64, 8}, {"bfs", 64, 2}, {"dag", 64, 2},
  };
  if (opt.full) {
    sgrid.push_back({"bfs", 64, 4});
    sgrid.push_back({"spmv", 128, 4});
    sgrid.push_back({"bfs", 128, 4});
    sgrid.push_back({"dag", 128, 4});
  }

  const auto sgroups = opt.sweep(sgrid, opt.seeds, [](const ScalePoint& pt,
                                                      int s) {
    const auto* spec = pram::find_workload(pt.workload);
    HostExecConfig cfg;
    cfg.seed = 12'800 + static_cast<std::uint64_t>(s);
    cfg.os_threads = pt.T;
    cfg.clock_alpha = 48.0;  // virtualized: phases need not outlast OS slices
    cfg.timeout_seconds = 120.0;
    return host_trial(*spec, pt.P, cfg);
  });

  Table st({"kernel", "P", "T", "runs", "ok", "damaged", "repaired",
            "work_mean", "wall_ms", "Msteps/s"});
  for (std::size_t g = 0; g < sgrid.size(); ++g) {
    const auto& group = sgroups[g];
    if (!group.all_ok()) all_ok = false;
    const int ok = static_cast<int>(group.count("ok"));
    st.row()
        .cell(sgrid[g].workload)
        .cell(static_cast<std::uint64_t>(sgrid[g].P))
        .cell(static_cast<std::uint64_t>(sgrid[g].T))
        .cell(static_cast<std::uint64_t>(group.trials()))
        .cell(ok)
        .cell(static_cast<std::uint64_t>(group.count("damaged")))
        .cell(static_cast<std::uint64_t>(group.count("repaired")))
        .cell(ok ? group.sample("work").mean() : 0.0, 0)
        .cell(ok ? group.sample("wall").mean() : 0.0, 2)
        .cell(ok ? group.sample("wps").mean() : 0.0, 2);
  }
  std::printf("\nscaling study (virtualized: P logical processors on T OS "
              "threads, alpha=48):\n");
  opt.emit(st);

  return bench::verdict(all_ok,
                        "agreement reached at every thread count on real "
                        "threads; the full scheme executes regular AND "
                        "irregular PRAM kernels correctly under genuine "
                        "asynchrony, including P=64+ instances virtualized "
                        "onto a handful of OS threads");
}

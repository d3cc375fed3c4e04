#include "lang/gen.h"

#include <numeric>
#include <sstream>
#include <vector>

#include "util/rng.h"

namespace apex::lang {

namespace {

constexpr std::uint64_t kGenTag = 0x6E7261476D415250ULL;  // domain separation

}  // namespace

GeneratedProgram generate_program(const GenOptions& opt) {
  Rng rng(mix64(opt.seed, kGenTag));

  // P >= 6: the fuzz harness's clobber-oracle work cap is only sound for
  // n >= 6 (see check/fuzz.cpp), and generated programs flow through it.
  const std::size_t P = 6 + rng.below(3);
  const bool use_dyn = rng.coin(0.6);
  const std::size_t G = 3 * P;                           // general pool
  const std::size_t S = use_dyn ? 8 + rng.below(9) : 0;  // frozen segment
  const std::size_t nvars = G + S;
  const std::size_t body_steps = 3 + rng.below(6);

  std::ostringstream os;
  os << "# generated: seed=" << opt.seed
     << (opt.deterministic ? " deterministic" : "") << '\n';
  os << "pram gen" << opt.seed << '\n';
  os << "procs " << P << '\n';
  os << "vars " << nvars << '\n';
  if (use_dyn)
    os << "segment data = v" << G << " : " << S << '\n';

  // Prologue: load every variable with a seed-derived constant, P lanes per
  // step.  Small values dominate so gather_dyn indices frequently land
  // inside their bound and the segment; the tail exercises the out-of-range
  // (result 0) path.
  std::size_t prologue_steps = 0;
  for (std::size_t base = 0; base < nvars; base += P) {
    os << "\nstep {\n";
    for (std::size_t t = 0; t < P && base + t < nvars; ++t) {
      const std::uint64_t value =
          rng.coin(0.7) ? rng.below(8) : rng.below(1ULL << 16);
      os << "  " << t << ": const v" << (base + t) << ", " << value << '\n';
    }
    os << "}\n";
    ++prologue_steps;
  }

  std::vector<std::size_t> pool(G);
  std::iota(pool.begin(), pool.end(), 0);
  for (std::size_t s = 0; s < body_steps; ++s) {
    // Per-step pools: each general variable handed out at most once as a
    // read and once as a write, so EREW holds by construction.
    std::vector<std::size_t> reads = pool, writes = pool;
    rng.shuffle(reads);
    rng.shuffle(writes);
    auto pop = [](std::vector<std::size_t>& v) {
      const std::size_t x = v.back();
      v.pop_back();
      return x;
    };
    os << "\nstep {\n";
    for (std::size_t t = 0; t < P; ++t) {
      if (rng.coin(0.15)) continue;  // idle lane
      const std::size_t z = pop(writes);
      // Op menu; gather_dyn/nondet entries fall through to the ALU arm
      // when the layout or options exclude them, keeping the draw count
      // (and thus the rest of the stream) stable per roll.
      const std::uint64_t roll = rng.below(100);
      if (roll < 10) {
        os << "  " << t << ": const v" << z << ", " << rng.below(1000)
           << '\n';
      } else if (roll < 20) {
        os << "  " << t << ": copy v" << z << ", v" << pop(reads) << '\n';
      } else if (roll < 30) {
        os << "  " << t << ": select v" << z << ", v" << pop(reads) << ", v"
           << pop(reads) << ", v" << pop(reads) << '\n';
      } else if (roll < 60 && use_dyn) {
        os << "  " << t << ": gather_dyn v" << z << ", v" << pop(reads)
           << ", v" << pop(reads) << ", v" << pop(reads) << ", data\n";
      } else if (roll < 70 && !opt.deterministic) {
        if (rng.coin(0.5))
          os << "  " << t << ": rand_below v" << z << ", "
             << (1 + rng.below(64)) << '\n';
        else
          os << "  " << t << ": coin v" << z << ", "
             << rng.below((std::uint64_t{1} << 32) + 1) << '\n';
      } else {
        static constexpr const char* kAlu[] = {"add", "sub", "mul", "min",
                                               "max", "xor", "and", "or",
                                               "less", "eq"};
        os << "  " << t << ": " << kAlu[rng.below(10)] << " v" << z << ", v"
           << pop(reads) << ", v" << pop(reads) << '\n';
      }
    }
    os << "}\n";
  }

  GeneratedProgram out;
  out.source.name = "<gen seed=" + std::to_string(opt.seed) + ">";
  out.source.text = os.str();
  out.nthreads = P;
  out.nvars = nvars;
  out.nsteps = prologue_steps + body_steps;
  return out;
}

}  // namespace apex::lang

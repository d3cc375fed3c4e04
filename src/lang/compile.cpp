#include "lang/compile.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <new>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "lang/lexer.h"
#include "util/parallel.h"

namespace apex::lang {

namespace {

constexpr std::uint64_t kMaxVarId = std::numeric_limits<std::uint32_t>::max();

/// The least step text (bytes inside the bodies) worth a step worker of
/// its own.  Calibrated on emitted registry sources, best of 41 compiles
/// (4-vCPU container, GCC 12.2, Release; a worker compiles about 200 KB
/// of steps per millisecond): a second worker made no file of 12-26 KB of
/// step text faster (spmv and prefix, n = 16-64), and made files of
/// 94-153 KB 1.2-1.5x faster (prefix and merge n = 256, bfs n = 32).
constexpr std::size_t kMinStepBytesPerWorker = std::size_t{64} << 10;

struct VarInfo {
  std::uint64_t base = 0;
  std::uint64_t count = 1;
};

struct SegInfo {
  std::uint32_t base = 0;
  std::uint32_t len = 0;
};

/// A fault a step worker found: a step's lexical or syntax error, or one
/// of its lanes' semantic errors.
struct StepFault {
  enum Kind : std::uint8_t { kLexical, kSyntax, kLane };
  std::size_t step = 0;
  Kind kind = kLane;
  Fault fault;
};

/// What a step worker keeps across the steps it claims.
struct Worker {
  std::size_t step = 0;           ///< The step being lowered.
  std::vector<LaneRec> lanes;     ///< Its records.
  std::vector<bool> placed;       ///< [thread]: has an instruction in it.
  std::vector<StepFault> faults;  ///< By step: steps are claimed in order.
  std::string_view seg_name;      ///< The segment name last looked up,
  const SegInfo* seg = nullptr;   ///< and what it names (null: nothing).

  void lane_fault(std::size_t at, std::string message) {
    faults.push_back({step, StepFault::kLane, {at, std::move(message)}});
  }
};

class Analyzer final : private pram::ErewSink {
 public:
  Analyzer(const SourceFile& src, const ParsedProgram& p,
           std::vector<Diagnostic>& diags)
      : src_(src), p_(p), diags_(diags) {}

  /// Lowers every step on `workers` threads (0: as many as the step text
  /// is worth), then builds the Program.
  std::optional<pram::Program> run(std::size_t workers) {
    const std::size_t nsteps = p_.step_at.size();
    if (workers == 0)
      workers = util::threads_for(p_.step_bytes, kMinStepBytesPerWorker,
                                  nsteps);
    // Lowering needs every declaration.  After a fault in the outline the
    // steps are only parsed: one of them may hold an earlier error.
    std::vector<pram::Step> steps;
    std::vector<Worker> pool(workers);
    std::size_t rows = 0;  // steps [0, rows) have a row to lower into
    bool too_large = false;
    if (!p_.faults.any()) {
      resolve_layout();
      resolve_segments();
      // A legal layout can still be too large for this machine: the steps
      // hold processors x steps instructions, the EREW pass and Program's
      // tables one entry per variable.  Running out ends in a diagnostic.
      // A step of more processors than a vector can hold (max_size())
      // throws length_error before allocating anything; it is the same
      // diagnostic.  The rows, and each worker's buffers for the most
      // lanes a clean step can hold (procs, and one per six bytes of its
      // text: "0:nop" and a space), are reserved here, on the calling
      // thread: grown by the workers, each would come from its thread's
      // own malloc arena and stay there, raising the peak.
      try {
        steps.resize(nsteps);
        for (; rows < nsteps; ++rows)
          steps[rows].instrs.reserve(static_cast<std::size_t>(procs_));
        const auto lanes = static_cast<std::size_t>(
            std::min<std::uint64_t>(procs_, p_.max_step_bytes / 6 + 1));
        for (Worker& w : pool) {
          w.lanes.reserve(lanes);
          w.placed.reserve(static_cast<std::size_t>(procs_));
        }
      } catch (const std::bad_alloc&) {
        too_large = true;
      } catch (const std::length_error&) {
        too_large = true;
      }
    }
    bool step_too_large = false;
    try {
      util::parallel_for(nsteps, workers, [&](std::size_t s, std::size_t w) {
        compile_step(s, s < rows ? &steps[s].instrs : nullptr, pool[w]);
      });
    } catch (const std::bad_alloc&) {
      step_too_large = true;
    } catch (const std::length_error&) {
      step_too_large = true;
    }
    if (step_too_large) {
      // A step needs more memory than there is.  What the steps no worker
      // finished hold is unknown, so no step's fault is reported.
      for (Worker& w : pool) w.faults.clear();
      too_large = true;
    }
    report(pool, too_large);
    pool.clear();  // the workers' buffers go before the Program's tables come
    if (!diags_.empty()) return std::nullopt;
    try {
      // Program's one EREW pass reports each violation to violation()
      // below, which locates it; then the constructor throws.
      return pram::Program(static_cast<std::size_t>(procs_),
                           static_cast<std::size_t>(nvars_),
                           std::move(steps), this);
    } catch (const std::bad_alloc&) {
      emit({vars_at(), "cannot allocate the layout: " +
                           std::to_string(nvars_) + " variables"});
      return std::nullopt;
    } catch (const std::exception& e) {
      // A backstop: a rule the analyzer does not locate still ends in a
      // diagnostic rather than terminating the caller.
      if (diags_.empty()) internal(e.what());
      return std::nullopt;
    }
  }

 private:
  void internal(const std::string& what) {
    emit({p_.name_at,
          "internal: program validation failed after analysis: " + what});
  }

  /// Locates from the previous diagnostic: reports mostly move forward.
  void emit(Fault f) {
    last_ = src_.loc_at(f.at, last_);
    diags_.push_back({last_, std::move(f.message)});
  }

  /// A layout or segment fault, reported once the steps are parsed.
  void error(std::size_t at, std::string msg) {
    pending_.push_back({at, std::move(msg)});
  }

  /// Records keep offsets, so names are read back from the source (which
  /// lexed cleanly once).
  std::string_view spelled(std::size_t at) const {
    Lexer lex(src_, at);
    return lex.text(lex.next());
  }
  std::string name(std::size_t at) const { return std::string(spelled(at)); }

  // ---- layout ----------------------------------------------------------

  void resolve_layout() {
    if (!p_.procs) {
      error(p_.name_at, "program declares no 'procs'");
      procs_ = 1;
    } else if (*p_.procs == 0) {
      error(p_.procs_at, "'procs' must be at least 1");
      procs_ = 1;
    } else {
      procs_ = *p_.procs;
    }
    // Named vars allocate sequentially starting at the declared `vars`
    // total (raw-index space first, names appended after), so a file can
    // freely mix `vars N` + raw refs with named declarations.  The sum is
    // 128-bit: 64-bit counts cannot wrap it.
    unsigned __int128 next = p_.vars.value_or(0);
    for (const VarDeclRec& d : p_.var_decls) {
      const std::string_view n = spelled(d.at);
      if (raw_ref_id(n) || opcode_from_keyword(n) || reserved(n)) {
        error(d.at, "variable name '" + name(d.at) + "' is reserved");
        continue;
      }
      if (names_.count(n)) {
        error(d.at, "variable '" + name(d.at) + "' already declared");
        continue;
      }
      if (d.count == 0) {
        error(d.at, "variable '" + name(d.at) + "' has array size 0");
        continue;
      }
      names_[n] = VarInfo{static_cast<std::uint64_t>(next), d.count};
      next += d.count;
    }
    if (next == 0) {
      error(p_.name_at, "program declares no variables");
      next = 1;
    }
    if (next > kMaxVarId + 1) {
      error(vars_at(),
            "variable id overflow: program needs " + decimal(next) +
                " variables but ids are 32-bit (max " +
                std::to_string(kMaxVarId + 1) + ")");
      next = 1;
    }
    nvars_ = static_cast<std::uint64_t>(next);
  }

  static std::string decimal(unsigned __int128 v) {
    std::string digits;
    do digits.insert(digits.begin(), static_cast<char>('0' + v % 10));
    while ((v /= 10) != 0);
    return digits;
  }

  /// Where a diagnostic about the variable count points: the `vars` total
  /// when the file declares one, else the program name.
  std::size_t vars_at() const { return p_.vars ? p_.vars_at : p_.name_at; }

  static bool reserved(std::string_view n) {
    return n == "pram" || n == "procs" || n == "vars" || n == "var" ||
           n == "segment" || n == "step";
  }

  void resolve_segments() {
    for (const SegDeclRec& d : p_.seg_decls) {
      const std::string_view n = spelled(d.at);
      if (segs_.count(n)) {
        error(d.at, "segment '" + name(d.at) + "' already declared");
        continue;
      }
      std::string why;
      const auto base = resolve_ref(d.base, why);
      if (!base) {
        error(d.base.at, std::move(why));
        continue;
      }
      if (d.len == 0) {
        error(d.len_at, "segment '" + name(d.at) + "' has length 0");
        continue;
      }
      if (d.len > kMaxVarId) {
        error(d.len_at,
              "segment '" + name(d.at) + "' length overflows 32 bits");
        continue;
      }
      if (*base + d.len > nvars_) {
        error(d.at, "segment '" + name(d.at) + "' [v" + std::to_string(*base) +
                        ", v" + std::to_string(*base + d.len) +
                        ") exceeds vars=" + std::to_string(nvars_));
        continue;
      }
      segs_[n] = SegInfo{static_cast<std::uint32_t>(*base),
                         static_cast<std::uint32_t>(d.len)};
    }
  }

  /// The variable `r` names, or nullopt with `why` set to what is wrong
  /// (a fault at r.at).  Workers call it at once: it changes only `why`.
  std::optional<std::uint64_t> resolve_ref(const RefRec& r,
                                           std::string& why) const {
    if (r.id != RefRec::kReread && r.id < nvars_) return r.id;
    Lexer lex(src_, r.at);
    const std::string_view n = lex.text(lex.next());
    const bool has_subscript = lex.next().kind == TokKind::kLBracket;
    const std::uint64_t subscript = has_subscript ? lex.next().value : 0;
    if (const auto raw = raw_ref_id(n)) {
      if (has_subscript) {
        why = "raw variable reference '" + name(r.at) +
              "' cannot take a subscript";
        return std::nullopt;
      }
      if (*raw > kMaxVarId) {
        why = "variable id '" + name(r.at) + "' overflows 32 bits";
        return std::nullopt;
      }
      if (*raw >= nvars_) {
        why = "variable v" + std::to_string(*raw) + " out of range (vars=" +
              std::to_string(nvars_) + ")";
        return std::nullopt;
      }
      return *raw;
    }
    const auto it = names_.find(n);
    if (it == names_.end()) {
      why = "undefined variable '" + name(r.at) + "'";
      return std::nullopt;
    }
    const VarInfo& info = it->second;
    if (subscript >= info.count) {
      why = "subscript " + std::to_string(subscript) + " out of bounds for '" +
            name(r.at) + "' (size " + std::to_string(info.count) + ")";
      return std::nullopt;
    }
    return info.base + subscript;
  }

  // ---- codegen ---------------------------------------------------------

  /// Parses step `s` and, given a row, writes each lane's instruction into
  /// it.  Workers run this at once on different steps: it changes only
  /// `row` and `w`.
  void compile_step(std::size_t s, std::vector<pram::Instr>* row,
                    Worker& w) const {
    ParseFaults parsed = parse_step(src_, p_.step_at[s], w.lanes);
    if (parsed.lexical)
      w.faults.push_back({s, StepFault::kLexical, std::move(*parsed.lexical)});
    else if (parsed.syntax)
      w.faults.push_back({s, StepFault::kSyntax, std::move(*parsed.syntax)});
    if (parsed.any() || row == nullptr) return;
    w.step = s;
    row->assign(static_cast<std::size_t>(procs_), pram::Instr::nop());
    w.placed.assign(static_cast<std::size_t>(procs_), false);
    for (const LaneRec& lane : w.lanes) {
      if (lane.lane >= procs_) {
        w.lane_fault(lane.lane_at, "lane " + std::to_string(lane.lane) +
                                       " out of range (procs=" +
                                       std::to_string(procs_) + ")");
        continue;
      }
      if (w.placed[lane.lane]) {
        w.lane_fault(lane.lane_at, "duplicate lane " +
                                       std::to_string(lane.lane) + " in step");
        continue;
      }
      if (lower(lane, (*row)[lane.lane], w)) w.placed[lane.lane] = true;
    }
  }

  /// Writes the lane's instruction to `out`, or reports why it has none
  /// (leaving `out` a nop).
  bool lower(const LaneRec& lane, pram::Instr& out, Worker& w) const {
    using pram::OpCode;
    const OpCode op = lane.op;
    // Resolve the op's operands in the order they are written: z, x, y, c,
    // but z, cond, x, y for select.
    static constexpr int kWritten[2][4] = {{0, 1, 2, 3}, {0, 3, 1, 2}};
    const RefRec* refs[] = {&lane.z, &lane.x, &lane.y, &lane.c};
    std::uint64_t id[4] = {};  // z, x, y, c
    const int n = pram::writes_dest(op) + pram::reads_of(op);
    bool ok = true;
    std::string why;
    for (int i = 0; i < n; ++i) {
      const int k = kWritten[op == OpCode::kSelect][i];
      const auto v = resolve_ref(*refs[k], why);
      if (!v) w.lane_fault(refs[k]->at, std::move(why));
      ok = ok && v;
      id[k] = v.value_or(0);
    }
    if (!ok) return false;
    auto u32 = [](std::uint64_t v) { return static_cast<std::uint32_t>(v); };
    // The coin immediate is the RAW fixed-point success probability
    // (p * 2^32), not a percentage — this keeps emit/parse lossless.
    if (op == OpCode::kCoin && lane.imm > (std::uint64_t{1} << 32)) {
      w.lane_fault(lane.imm_at,
                   "coin immediate exceeds 2^32 (fixed-point probability)");
      return false;
    }
    if (op == OpCode::kGatherDyn) {
      const std::string_view seg_name =
          std::string_view(src_.text).substr(lane.imm_at, lane.imm);
      if (seg_name != w.seg_name) {  // most lanes name the previous one
        const auto it = segs_.find(seg_name);
        w.seg = it == segs_.end() ? nullptr : &it->second;
        w.seg_name = seg_name;
      }
      if (w.seg == nullptr) {
        w.lane_fault(lane.imm_at,
                     "undefined segment '" + std::string(seg_name) + "'");
        return false;
      }
      out = pram::Instr::gather_dyn(u32(id[0]), u32(id[1]), u32(id[2]),
                                    u32(id[3]), w.seg->base, w.seg->len);
      return true;
    }
    out = {op, u32(id[0]), u32(id[1]), u32(id[2]), u32(id[3]), lane.imm};
    return true;
  }

  /// Reports the faults in their order: the first lexical error anywhere,
  /// alone; else the first syntax error, alone; else the layout's and the
  /// segments' faults, then the lanes' by step, each step's in file order,
  /// and last that the layout is too large to allocate.
  void report(std::vector<Worker>& pool, bool too_large) {
    std::vector<StepFault> faults;
    for (Worker& w : pool)
      faults.insert(faults.end(), std::make_move_iterator(w.faults.begin()),
                    std::make_move_iterator(w.faults.end()));
    // A worker claims steps in increasing order, so each step's faults
    // stay in file order.  Steps lie in file order, so the first fault of
    // a kind is the earliest among the steps.
    std::stable_sort(faults.begin(), faults.end(),
                     [](const StepFault& a, const StepFault& b) {
                       return a.step < b.step;
                     });
    for (const auto kind : {StepFault::kLexical, StepFault::kSyntax}) {
      const std::optional<Fault>& outline = kind == StepFault::kLexical
                                                ? p_.faults.lexical
                                                : p_.faults.syntax;
      const Fault* first = outline ? &*outline : nullptr;
      const auto in_step =
          std::find_if(faults.begin(), faults.end(),
                       [&](const StepFault& f) { return f.kind == kind; });
      if (in_step != faults.end() && (!first || in_step->fault.at < first->at))
        first = &in_step->fault;
      if (first) {
        emit(*first);
        return;
      }
    }
    for (Fault& f : pending_) emit(std::move(f));
    for (StepFault& f : faults) emit(std::move(f.fault));
    if (too_large)
      emit({p_.procs_at, "cannot allocate the layout: " +
                             std::to_string(procs_) + " processors x " +
                             std::to_string(p_.step_at.size()) + " steps"});
  }

  // ---- EREW violations, located ----------------------------------------

  void violation(const pram::ErewViolation& v) override {
    using pram::ErewRule;
    const std::string var = "variable v" + std::to_string(v.var);
    switch (v.rule) {
      case ErewRule::kShared:
        emit({spelled_at(v),
              "EREW violation: " + var +
                  (v.operand == pram::Operand::kZ ? " written" : " read") +
                  " by more than one thread in this step"});
        return;
      case ErewRule::kSegmentWrite:
        emit({spelled_at(v),
              var + " written inside gather_dyn segment [v" +
                  std::to_string(v.seg_base) + ", v" +
                  std::to_string(std::uint64_t{v.seg_base} + v.seg_len) +
                  ")"});
        return;
      default:  // the analyzer rules these out before the pass
        internal(v.message(static_cast<std::size_t>(nvars_)));
        return;
    }
  }

  /// Where the violating operand is spelled.  Every instruction that uses
  /// a variable has a record: implicit nops use none.  No record outlives
  /// its step's lowering, so the step is parsed again; violations arrive
  /// in step order, so each violated step is parsed once.
  std::uint32_t spelled_at(const pram::ErewViolation& v) {
    if (lanes_step_ != v.step) {
      parse_step(src_, p_.step_at[v.step], lanes_);
      lane_at_.assign(static_cast<std::size_t>(procs_), nullptr);
      for (const LaneRec& lane : lanes_) lane_at_[lane.lane] = &lane;
      lanes_step_ = v.step;
    }
    const LaneRec& lane = *lane_at_[v.thread];
    switch (v.operand) {
      case pram::Operand::kX: return lane.x.at;
      case pram::Operand::kY: return lane.y.at;
      case pram::Operand::kC: return lane.c.at;
      default: return lane.z.at;
    }
  }

  const SourceFile& src_;
  const ParsedProgram& p_;
  std::vector<Diagnostic>& diags_;
  std::vector<Fault> pending_;  ///< The layout's and segments' faults.
  Loc last_;                    ///< The latest diagnostic's location.
  std::uint64_t procs_ = 0;
  std::uint64_t nvars_ = 0;
  std::unordered_map<std::string_view, VarInfo> names_;
  std::unordered_map<std::string_view, SegInfo> segs_;
  static constexpr std::size_t kNoStep = SIZE_MAX;
  std::size_t lanes_step_ = kNoStep;     ///< The step lanes_ holds.
  std::vector<LaneRec> lanes_;           ///< That step, parsed again.
  std::vector<const LaneRec*> lane_at_;  ///< [thread] into lanes_
};

}  // namespace

namespace detail {

CompileResult compile_source(const SourceFile& src, std::size_t workers) {
  CompileResult result;
  // Records hold 32-bit source offsets.
  if (src.text.size() > std::numeric_limits<std::uint32_t>::max()) {
    result.diagnostics.push_back({Loc{}, "source file exceeds 4 GiB"});
    return result;
  }
  const ParsedProgram outline = parse(src);
  result.program = Analyzer(src, outline, result.diagnostics).run(workers);
  return result;
}

}  // namespace detail

CompileResult compile_source(const SourceFile& src) {
  return detail::compile_source(src, 0);
}

CompileResult compile_file(const std::string& path, SourceFile& out_src) {
  out_src = SourceFile{path, {}};
  std::ifstream in(path, std::ios::binary);
  if (!in) return {{}, {{Loc{}, "cannot open '" + path + "'"}}};
  // One read into a buffer sized from the file, a byte over so the read
  // meets end of file; a pipe, whose size is unknown, grows it.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::string& text = out_src.text;
  text.resize(ec ? 4096 : static_cast<std::size_t>(size) + 1);
  std::size_t got = 0;
  while (in.read(&text[got],
                 static_cast<std::streamsize>(text.size() - got))) {
    got = text.size();
    text.resize(2 * got);
  }
  text.resize(got + static_cast<std::size_t>(in.gcount()));
  if (in.bad()) {
    text.clear();
    return {{}, {{Loc{}, "cannot read '" + path + "'"}}};
  }
  return compile_source(out_src);
}

}  // namespace apex::lang

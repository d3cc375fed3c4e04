#include "lang/compile.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <new>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "lang/lexer.h"

namespace apex::lang {

namespace {

constexpr std::uint64_t kMaxVarId = std::numeric_limits<std::uint32_t>::max();

struct VarInfo {
  std::uint64_t base = 0;
  std::uint64_t count = 1;
};

struct SegInfo {
  std::uint32_t base = 0;
  std::uint32_t len = 0;
};

class Analyzer {
 public:
  Analyzer(const SourceFile& src, ParsedProgram& p,
           std::vector<Diagnostic>& diags)
      : src_(src), p_(p), diags_(diags) {}

  std::optional<pram::Program> run() {
    resolve_layout();
    resolve_segments();
    // A legal layout can still be too large for this machine: the steps
    // hold processors × steps instructions, the EREW mirror and Program's
    // tables one entry per variable.  Running out ends in a diagnostic.
    std::vector<pram::Step> steps;
    try {
      steps = build_steps();
    } catch (const std::bad_alloc&) {
      error(p_.procs_at, "cannot allocate the layout: " +
                             std::to_string(procs_) + " processors x " +
                             std::to_string(p_.steps.size()) + " steps");
      return std::nullopt;
    }
    if (!diags_.empty()) return std::nullopt;
    try {
      check_erew(steps);
      if (!diags_.empty()) return std::nullopt;
      // Our checks mirror Program's own validation, so this construction
      // cannot throw otherwise; the catch below is a backstop so a checker
      // gap still surfaces as a diagnostic rather than terminating the
      // caller.
      return pram::Program(static_cast<std::size_t>(procs_),
                           static_cast<std::size_t>(nvars_),
                           std::move(steps));
    } catch (const std::bad_alloc&) {
      error(vars_at(), "cannot allocate the layout: " +
                           std::to_string(nvars_) + " variables");
      return std::nullopt;
    } catch (const std::exception& e) {
      error(p_.name_at, std::string("internal: program validation failed "
                                    "after analysis: ") +
                            e.what());
      return std::nullopt;
    }
  }

 private:
  /// Locates from the previous diagnostic: batches mostly move forward.
  void error(std::size_t at, std::string msg) {
    last_ = src_.loc_at(at, last_);
    diags_.push_back({last_, std::move(msg)});
  }

  /// Records keep offsets, so names are read back from the source (which
  /// lexed cleanly once: none_ stays empty).
  std::string_view spelled(std::size_t at) {
    Lexer lex(src_, none_, at);
    return lex.text(lex.next());
  }
  std::string name(std::size_t at) { return std::string(spelled(at)); }

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
    // freely mix `vars N` + raw refs with named declarations.
    std::uint64_t next = p_.vars.value_or(0);
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
      names_[n] = VarInfo{next, d.count};
      next += d.count;
    }
    nvars_ = next;
    if (nvars_ == 0) {
      error(p_.name_at, "program declares no variables");
      nvars_ = 1;
    }
    if (nvars_ > kMaxVarId + 1) {
      error(vars_at(),
            "variable id overflow: program needs " + std::to_string(nvars_) +
                " variables but ids are 32-bit (max " +
                std::to_string(kMaxVarId + 1) + ")");
      nvars_ = 1;
    }
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
      const auto base = resolve_ref(d.base);
      if (!base) continue;
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

  /// Resolve a reference to a variable index, or nullopt after reporting.
  std::optional<std::uint64_t> resolve_ref(const RefRec& r) {
    if (r.id != RefRec::kReread && r.id < nvars_) return r.id;
    Lexer lex(src_, none_, r.at);
    const std::string_view n = lex.text(lex.next());
    const bool has_subscript = lex.next().kind == TokKind::kLBracket;
    const std::uint64_t subscript = has_subscript ? lex.next().value : 0;
    if (const auto raw = raw_ref_id(n)) {
      if (has_subscript) {
        error(r.at, "raw variable reference '" + name(r.at) +
                        "' cannot take a subscript");
        return std::nullopt;
      }
      if (*raw > kMaxVarId) {
        error(r.at, "variable id '" + name(r.at) + "' overflows 32 bits");
        return std::nullopt;
      }
      if (*raw >= nvars_) {
        error(r.at, "variable v" + std::to_string(*raw) +
                        " out of range (vars=" + std::to_string(nvars_) + ")");
        return std::nullopt;
      }
      return *raw;
    }
    const auto it = names_.find(n);
    if (it == names_.end()) {
      error(r.at, "undefined variable '" + name(r.at) + "'");
      return std::nullopt;
    }
    const VarInfo& info = it->second;
    if (subscript >= info.count) {
      error(r.at, "subscript " + std::to_string(subscript) +
                      " out of bounds for '" + name(r.at) + "' (size " +
                      std::to_string(info.count) + ")");
      return std::nullopt;
    }
    return info.base + subscript;
  }

  // ---- codegen ---------------------------------------------------------

  /// Writes every lane's instruction into its step.
  std::vector<pram::Step> build_steps() {
    std::vector<pram::Step> steps(p_.steps.size());
    std::vector<bool> placed;  // thread has an instruction this step
    for (std::size_t s = 0; s < steps.size(); ++s) {
      steps[s].instrs.assign(static_cast<std::size_t>(procs_),
                             pram::Instr::nop());
      placed.assign(static_cast<std::size_t>(procs_), false);
      for (const LaneRec& lane : p_.steps[s]) {
        if (lane.lane >= procs_) {
          error(lane.lane_at, "lane " + std::to_string(lane.lane) +
                                  " out of range (procs=" +
                                  std::to_string(procs_) + ")");
          continue;
        }
        if (placed[lane.lane]) {
          error(lane.lane_at, "duplicate lane " + std::to_string(lane.lane) +
                                  " in step");
          continue;
        }
        const auto ins = lower(lane);
        if (!ins) continue;
        steps[s].instrs[lane.lane] = *ins;
        placed[lane.lane] = true;
      }
    }
    return steps;
  }

  std::optional<pram::Instr> lower(const LaneRec& lane) {
    using pram::OpCode;
    const OpCode op = lane.op;
    // Resolve the op's operands in the order they are written: z, x, y, c,
    // but z, cond, x, y for select.
    static constexpr int kWritten[2][4] = {{0, 1, 2, 3}, {0, 3, 1, 2}};
    const RefRec* refs[] = {&lane.z, &lane.x, &lane.y, &lane.c};
    std::uint64_t id[4] = {};  // z, x, y, c
    const int n = pram::writes_dest(op) + pram::reads_of(op);
    bool ok = true;
    for (int i = 0; i < n; ++i) {
      const int k = kWritten[op == OpCode::kSelect][i];
      const auto v = resolve_ref(*refs[k]);
      ok = ok && v;
      id[k] = v.value_or(0);
    }
    if (!ok) return std::nullopt;
    auto u32 = [](std::uint64_t v) { return static_cast<std::uint32_t>(v); };
    pram::Instr ins{op, u32(id[0]), u32(id[1]), u32(id[2]), u32(id[3]),
                    lane.imm};
    // The coin immediate is the RAW fixed-point success probability
    // (p * 2^32), not a percentage — this keeps emit/parse lossless.
    if (op == OpCode::kCoin && lane.imm > (std::uint64_t{1} << 32)) {
      error(lane.imm_at,
            "coin immediate exceeds 2^32 (fixed-point probability)");
      return std::nullopt;
    }
    if (op == OpCode::kGatherDyn) {
      const auto it = segs_.find(spelled(lane.imm_at));
      if (it == segs_.end()) {
        error(lane.imm_at, "undefined segment '" + name(lane.imm_at) + "'");
        return std::nullopt;
      }
      return pram::Instr::gather_dyn(ins.z, ins.x, ins.y, ins.c,
                                     it->second.base, it->second.len);
    }
    return ins;
  }

  // ---- EREW (source-located mirror of Program::validate_erew) ----------

  /// Runs once every lane compiled, like Program's own check; frees each
  /// step's records once it is checked.
  void check_erew(const std::vector<pram::Step>& steps) {
    std::vector<std::uint32_t> reads(nvars_, 0), writes(nvars_, 0);
    std::vector<const LaneRec*> lane_of;  // [thread], this step
    for (std::size_t s = 0; s < steps.size(); ++s) {
      const std::uint32_t epoch = static_cast<std::uint32_t>(s) + 1;
      lane_of.assign(static_cast<std::size_t>(procs_), nullptr);
      for (const LaneRec& lane : p_.steps[s]) lane_of[lane.lane] = &lane;
      std::vector<std::pair<std::uint32_t, std::uint32_t>> step_segs;
      struct Write { std::uint32_t var; const LaneRec* lane; };
      std::vector<Write> written;
      for (std::size_t t = 0; t < steps[s].instrs.size(); ++t) {
        const pram::Instr& ins = steps[s].instrs[t];
        const LaneRec* lane = lane_of[t];
        if (lane == nullptr) continue;  // implicit nop
        const int r = pram::reads_of(ins.op);
        if (r >= 1) mark_read(reads, epoch, ins.x, lane->x.at);
        if (r >= 2) mark_read(reads, epoch, ins.y, lane->y.at);
        if (r >= 3) mark_read(reads, epoch, ins.c, lane->c.at);
        if (pram::reads_dyn_window(ins.op)) {
          const auto seg = std::make_pair(pram::dyn_seg_base(ins),
                                          pram::dyn_seg_len(ins));
          if (std::find(step_segs.begin(), step_segs.end(), seg) ==
              step_segs.end())
            step_segs.push_back(seg);
        }
        if (pram::writes_dest(ins.op)) {
          if (writes[ins.z] == epoch) {
            error(lane->z.at, "EREW violation: variable v" +
                                  std::to_string(ins.z) +
                                  " written by more than one thread in this "
                                  "step");
          } else {
            writes[ins.z] = epoch;
          }
          written.push_back({ins.z, lane});
        }
      }
      // Segment cells must stay frozen while any gather_dyn of this step
      // may read them.
      for (const auto& [base, len] : step_segs)
        for (const Write& w : written)
          if (w.var >= base && w.var - base < len)
            error(w.lane->z.at,
                  "variable v" + std::to_string(w.var) +
                      " written inside gather_dyn segment [v" +
                      std::to_string(base) + ", v" +
                      std::to_string(static_cast<std::uint64_t>(base) + len) +
                      ")");
      std::vector<LaneRec>().swap(p_.steps[s]);
    }
  }

  void mark_read(std::vector<std::uint32_t>& reads, std::uint32_t epoch,
                 std::uint32_t var, std::size_t at) {
    if (reads[var] == epoch) {
      error(at, "EREW violation: variable v" + std::to_string(var) +
                    " read by more than one thread in this step");
      return;
    }
    reads[var] = epoch;
  }

  const SourceFile& src_;
  ParsedProgram& p_;
  std::vector<Diagnostic>& diags_;
  std::vector<Diagnostic> none_;
  Loc last_;  ///< The latest diagnostic's location.
  std::uint64_t procs_ = 0;
  std::uint64_t nvars_ = 0;
  std::unordered_map<std::string_view, VarInfo> names_;
  std::unordered_map<std::string_view, SegInfo> segs_;
};

}  // namespace

CompileResult compile_source(const SourceFile& src) {
  CompileResult result;
  auto parsed = parse(src, result.diagnostics);
  if (parsed)
    result.program = Analyzer(src, *parsed, result.diagnostics).run();
  return result;
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

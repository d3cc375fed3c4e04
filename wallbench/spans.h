// In-memory span recorder for the benchmark's traced runs.
//
// Each attempt is one run id with one root span; every call into a layer's
// public API is a child span of that root, named after the layer metric it
// feeds (`pram.build`, `exec.run`, ...).  A span may also carry DERIVED
// children whose durations the layer reports itself (the host executor's
// thread phase vs its post-join audit), so self times still add up.  Spans
// stay in memory and are written once, at exit, as Chrome trace-event JSON
// (load it in chrome://tracing or Perfetto).
//
// Timing is always on: child() returns the call's duration whether or not
// the attempt is recorded, because the end-to-end metrics need the same
// stage times with tracing off.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace wallbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Spans {
 public:
  struct Span {
    std::string name;
    int run = 0;
    int parent = -1;  ///< Index of the parent span; -1 for a root.
    double start_s = 0.0;  ///< Since the recorder's epoch.
    double dur_s = 0.0;
  };

  /// Opens attempt `run`'s root span; `record` selects whether its spans are
  /// kept (traced attempt) or only timed.
  void open_root(int run, bool record) {
    run_ = run;
    record_ = record;
    root_t0_ = Clock::now();
  }

  /// Closes the root span; returns the attempt's wall seconds.
  double close_root() {
    const auto t1 = Clock::now();
    const double dur = seconds_between(root_t0_, t1);
    if (record_) {
      spans_.push_back({"verified", run_, -1, offset(root_t0_), dur});
      const int root = static_cast<int>(spans_.size()) - 1;
      for (int i = first_child_; i < root; ++i)
        if (spans_[i].parent == kPendingRoot) spans_[i].parent = root;
    }
    first_child_ = static_cast<int>(spans_.size());
    return dur;
  }

  /// Times one layer call as a child of the open root; returns its seconds.
  template <typename F>
  double child(const char* name, F&& f) {
    const auto t0 = Clock::now();
    std::forward<F>(f)();
    const auto t1 = Clock::now();
    const double dur = seconds_between(t0, t1);
    last_ = -1;
    if (record_) {
      spans_.push_back({name, run_, kPendingRoot, offset(t0), dur});
      last_ = static_cast<int>(spans_.size()) - 1;
    }
    return dur;
  }

  /// Adds a derived child of the span child() recorded last, starting
  /// `at_s` after it; a no-op when the attempt is not recorded.
  void derived(const char* name, double at_s, double dur_s) {
    if (last_ < 0) return;
    spans_.push_back({name, run_, last_, spans_[last_].start_s + at_s, dur_s});
  }

  /// Per span name: (summed self seconds, number of spans).  Self time is
  /// a span's duration minus the part its children cover.
  std::map<std::string, std::pair<double, int>> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur_s;
    for (const Span& s : spans_)
      if (s.parent >= 0) self[s.parent] -= s.dur_s;
    std::map<std::string, std::pair<double, int>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& [sum, count] = out[spans_[i].name];
      sum += self[i];
      ++count;
    }
    return out;
  }

  /// Writes every recorded span as Chrome trace-event JSON; `other_data` is
  /// a JSON object stored under "otherData".  Returns false on I/O failure.
  bool write_chrome_trace(const std::string& path,
                          const std::string& other_data) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n"
                    " \"traceEvents\": [\n", other_data.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"run\": %d, \"parent\": %d}}%s\n",
                   s.name.c_str(), s.parent < 0 ? "root" : "layer", s.run,
                   s.start_s * 1e6, s.dur_s * 1e6, s.run, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, " ]}\n");
    return std::fclose(f) == 0;
  }

 private:
  /// Parent marker for children recorded before their root closes.
  static constexpr int kPendingRoot = -2;

  double offset(Clock::time_point t) const { return seconds_between(epoch_, t); }

  Clock::time_point epoch_ = Clock::now();
  Clock::time_point root_t0_ = epoch_;
  std::vector<Span> spans_;
  int run_ = 0;
  int last_ = -1;
  int first_child_ = 0;
  bool record_ = false;
};

}  // namespace wallbench

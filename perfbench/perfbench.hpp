// Repository benchmark: shared types.
//
// The benchmark runs one workload per process (paper_sweep, fault_campaign,
// native_ftgemm) by calling the library's public entry points, checks the
// outputs, and prints one JSON result line. Untraced runs report the
// end-to-end metrics; traced runs record spans around the calls into each
// layer and report per-layer metrics (METRICS.md lists them all).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `gated` holds the end-to-end metrics of
/// an untraced run's JSON line; `info` holds everything else the workload
/// measured: per-layer metrics of a traced run and workload-specific
/// figures such as sweep_s or ftgemm_gflops, printed in the table.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  std::vector<Metric> gated;
  std::vector<Metric> info;

  void fail(std::string why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(std::move(why));
  }
  void gate(std::string name, double v, std::string unit) {
    gated.push_back({std::move(name), v, std::move(unit)});
  }
  void note(std::string name, double v, std::string unit) {
    info.push_back({std::move(name), v, std::move(unit)});
  }
};

/// True in the traced executable (perfbench_traced), which records spans,
/// captures reference streams and reports the per-layer metrics; false in
/// the end-to-end one (perfbench).
#ifdef PERFBENCH_CAPTURE
inline constexpr bool kTraced = true;
#else
inline constexpr bool kTraced = false;
#endif

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;  ///< Chrome trace file of the traced run
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64 step: derives independent seeds from the run seed.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
/// Peak resident set of this process in MB.
double peak_rss_mb();
unsigned worker_count();

// --- spans (spans.cpp) -------------------------------------------------------

/// In-memory span log. Spans carry a name, start, end, parent span and the
/// id of the cell, trial or fused call they belong to; they are written
/// once, at the end, as Chrome trace-event JSON.
class Spans {
 public:
  static constexpr int kNoParent = -1;

  /// Open a span. Its parent is the innermost span open on this thread,
  /// or `parent` when given (spans opened on pool workers).
  int begin(std::string_view name, std::uint64_t id = 0,
            int parent = kNoParent);
  void end(int span);
  /// Span duration minus the union of its children's intervals.
  [[nodiscard]] double self_seconds(int s) const;
  [[nodiscard]] std::size_t size() const;
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    int parent = kNoParent;
    double t0 = 0.0, t1 = -1.0;
    unsigned tid = 0;
  };
  std::vector<Span> spans_;
  Clock::time_point epoch_ = Clock::now();
};

/// The process-wide span log; null in untraced runs, so a Scope costs one
/// branch there.
Spans* spans();
void enable_spans();

class Scope {
 public:
  explicit Scope(std::string_view name, std::uint64_t id = 0,
                 int parent = Spans::kNoParent)
      : log_(spans()), span_(log_ ? log_->begin(name, id, parent) : -1) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// End the span before the scope does.
  void close() {
    if (log_ == nullptr || closed_) return;
    closed_ = true;
    log_->end(span_);
  }
  [[nodiscard]] int id() const { return span_; }

 private:
  Spans* log_;
  int span_;
  bool closed_ = false;
};

// --- workloads (workloads.cpp) ----------------------------------------------

Result run_paper_sweep(const RunArgs& args);
Result run_fault_campaign(const RunArgs& args);
Result run_native_ftgemm(const RunArgs& args);

// --- FMA peak (fma_peak.cpp) --------------------------------------------------

/// Single-core double-precision FMA throughput from a register-only loop,
/// in GF/s (AVX2 when the CPU has it, scalar otherwise).
double fma_peak_gflops();

}  // namespace perfbench

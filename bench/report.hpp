// Shared table-formatting helpers for the experiment harnesses.
//
// Every bench binary regenerates one table or figure of the paper: it
// prints the same rows/series the paper reports so the shape can be
// compared directly (see EXPERIMENTS.md for the side-by-side record).
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "memsim/config.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/platform.hpp"
#include "sim/strategy.hpp"

namespace abftecc::bench {

inline void header(std::string_view experiment, std::string_view paper_ref) {
  std::printf("==================================================================\n");
  std::printf("%.*s  (reproduces %.*s)\n", static_cast<int>(experiment.size()),
              experiment.data(), static_cast<int>(paper_ref.size()),
              paper_ref.data());
  std::printf("==================================================================\n");
}

/// Print the Table 3-style configuration actually used by a run.
inline void print_config(const sim::PlatformOptions& opt) {
  const auto cfg = memsim::SystemConfig::scaled(opt.cache_scale);
  std::printf(
      "config: L1 %zuKB/%uway, L2 %zuKB/%uway, %u chan x %u DIMM x %u rank, "
      "row %zuB, %s-page\n",
      cfg.l1.size_bytes / 1024, cfg.l1.ways, cfg.l2.size_bytes / 1024,
      cfg.l2.ways, cfg.org.channels, cfg.org.dimms_per_channel,
      cfg.org.ranks_per_dimm, cfg.org.row_bytes,
      opt.row_policy == memsim::RowBufferPolicy::kOpenPage ? "open" : "closed");
  std::printf(
      "inputs: DGEMM %zu, Cholesky %zu, CG %zu x %zu iters, HPL %zu (%zu "
      "procs), verify period %zu\n\n",
      opt.dgemm_dim, opt.cholesky_dim, opt.cg_dim, opt.cg_iterations,
      opt.hpl_dim, opt.hpl_processes, opt.verify_period);
}

/// Simple fixed-width row printing.
inline void row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

inline std::string fmt_pct(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f%%", v * 100.0);
  return buf;
}

inline std::string fmt_sci(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3g", v);
  return buf;
}

/// Linear-interpolated quantile q in [0, 1] of `v` (non-empty).
inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// One experiment's machine-readable record. Construct it first thing in
/// main(): it parses the shared CLI flags into `opt` and prints the usual
/// header/config banner. Feed it every kernel run (and any derived scalar
/// figures of merit); on destruction it writes the `--json` report and the
/// `--trace` Chrome timeline if either was requested.
///
/// The JSON schema is stable (see DESIGN.md "Observability"): top-level
/// keys schema_version / experiment / paper_ref / config / runs / scalars /
/// metrics; each run carries cycles, instructions, ipc, seconds, an energy
/// split, memory-system counters, and the FT recovery counters.
class Report {
 public:
  Report(int argc, char** argv, std::string_view experiment,
         std::string_view paper_ref, sim::PlatformOptions& opt)
      : experiment_(experiment), paper_ref_(paper_ref), opt_(&opt) {
    cli_ = sim::parse_cli(argc, argv, opt);
    header(experiment_, paper_ref_);
    print_config(opt);
  }

  /// For harnesses that do not run the simulated platform (wall-clock or
  /// analytical studies): parses only the output flags, prints the header
  /// without a config banner, and reports `"config": null`.
  Report(int argc, char** argv, std::string_view experiment,
         std::string_view paper_ref)
      : experiment_(experiment), paper_ref_(paper_ref) {
    sim::PlatformOptions ignored;
    cli_ = sim::parse_cli(argc, argv, ignored);
    header(experiment_, paper_ref_);
  }

  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;

  ~Report() {
    // Close any still-open profiling interval so the report and the merged
    // timeline see final attribution (no-op when profiling never ran).
    obs::default_profiler().stop();
    if (!cli_.json_path.empty()) write_json(cli_.json_path.c_str());
    if (!cli_.metrics_out_path.empty())
      write_metrics_out(cli_.metrics_out_path.c_str());
    if (!cli_.trace_path.empty())
      obs::default_tracer().write_chrome_trace(cli_.trace_path);
    if (!cli_.chrome_trace_path.empty() &&
        obs::write_merged_chrome_trace(cli_.chrome_trace_path,
                                       obs::default_tracer(),
                                       obs::default_profiler()))
      std::printf("wrote merged Chrome trace: %s\n",
                  cli_.chrome_trace_path.c_str());
  }

  void add_run(std::string_view label, const sim::RunMetrics& m) {
    runs_.emplace_back(std::string(label), m);
  }

  /// Record a derived figure of merit (a ratio, spread, threshold, ...).
  void scalar(std::string_view name, double v) {
    scalars_.emplace_back(std::string(name), v);
  }

  /// Record a qualitative outcome (an error-handling path, a verdict, ...).
  void note(std::string_view name, std::string_view text) {
    notes_.emplace_back(std::string(name), std::string(text));
  }

  /// Attach a pre-serialized JSON value under a custom top-level key (the
  /// campaign uses this for its latency histograms).
  void section(std::string_view name, std::string json) {
    sections_.emplace_back(std::string(name), std::move(json));
  }

  [[nodiscard]] const sim::CliReport& cli() const { return cli_; }

 private:
  /// The telemetry plane's textfile mode (--metrics-out): OpenMetrics
  /// exposition of the final default-registry snapshot, labeled with the
  /// experiment name. Output passes tools/promcheck.py.
  void write_metrics_out(const char* path) const {
    obs::OpenMetricsWriter om;
    om.snapshot(obs::default_registry().snapshot(),
                {{"experiment", experiment_}});
    const std::string text = om.take();
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "report: cannot open '%s' for writing\n", path);
      return;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("wrote OpenMetrics exposition: %s\n", path);
  }

  void write_json(const char* path) const {
    obs::JsonWriter w;
    w.begin_object();
    w.field("schema_version", 1);
    w.field("experiment", experiment_);
    w.field("paper_ref", paper_ref_);
    w.key("config");
    write_config(w);
    w.key("runs");
    w.begin_array();
    for (const auto& [label, m] : runs_) write_run(w, label, m);
    w.end_array();
    w.key("scalars");
    w.begin_object();
    for (const auto& [name, v] : scalars_) w.field(name, v);
    w.end_object();
    w.key("notes");
    w.begin_object();
    for (const auto& [name, text] : notes_) w.field(name, text);
    w.end_object();
    w.key("metrics");
    w.raw(obs::default_registry().to_json());
    w.key("profile");
    if (const auto& prof = obs::default_profiler(); !prof.nodes().empty())
      w.raw(prof.to_json());
    else
      w.null();
    for (const auto& [name, json] : sections_) w.key(name).raw(json);
    w.end_object();
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "report: cannot open '%s' for writing\n", path);
      return;
    }
    const std::string text = w.take();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nwrote JSON report: %s\n", path);
  }

  void write_config(obs::JsonWriter& w) const {
    if (opt_ == nullptr) {
      w.null();
      return;
    }
    const auto& o = *opt_;
    w.begin_object();
    w.field("strategy", sim::spec(o.strategy).label);
    w.field("dgemm_dim", static_cast<std::uint64_t>(o.dgemm_dim));
    w.field("cholesky_dim", static_cast<std::uint64_t>(o.cholesky_dim));
    w.field("cg_dim", static_cast<std::uint64_t>(o.cg_dim));
    w.field("cg_iterations", static_cast<std::uint64_t>(o.cg_iterations));
    w.field("hpl_dim", static_cast<std::uint64_t>(o.hpl_dim));
    w.field("hpl_processes", static_cast<std::uint64_t>(o.hpl_processes));
    w.field("verify_period", static_cast<std::uint64_t>(o.verify_period));
    w.field("hardware_assisted", o.hardware_assisted);
    w.field("use_dgms", o.use_dgms);
    w.field("seed", static_cast<std::uint64_t>(o.seed));
    w.field("cache_scale", static_cast<std::uint64_t>(o.cache_scale));
    w.field("row_policy",
            o.row_policy == memsim::RowBufferPolicy::kOpenPage ? "open_page"
                                                               : "closed_page");
    w.end_object();
  }

  static void write_run(obs::JsonWriter& w, const std::string& label,
                        const sim::RunMetrics& m) {
    w.begin_object();
    w.field("label", label);
    w.field("kernel", sim::kernel_name(m.kernel));
    w.field("strategy", sim::spec(m.strategy).label);
    w.field("backend", to_string(m.backend));
    w.field("cycles", m.sys.cpu_cycles);
    w.field("instructions", m.sys.instructions);
    w.field("ipc", m.ipc);
    w.field("seconds", m.seconds);
    w.field("status", abft::to_string(m.status));
    w.key("energy");
    w.begin_object();
    w.field("mem_dynamic_pj", m.mem_dynamic_pj);
    w.field("mem_standby_pj", m.mem_standby_pj);
    w.field("processor_pj", m.processor_pj);
    w.field("mem_dynamic_abft_pj", m.mem_dynamic_abft_pj);
    w.field("mem_dynamic_other_pj", m.mem_dynamic_other_pj);
    w.field("memory_pj", m.memory_pj());
    w.field("system_pj", m.system_pj());
    w.end_object();
    w.key("memory");
    w.begin_object();
    w.field("mem_refs", m.sys.mem_refs);
    w.field("demand_misses", m.sys.demand_misses);
    w.field("demand_misses_abft", m.sys.demand_misses_abft);
    w.field("demand_misses_other", m.sys.demand_misses_other);
    w.field("writebacks", m.sys.writebacks);
    w.field("l1_miss_rate", m.l1.miss_rate());
    w.field("l2_miss_rate", m.l2.miss_rate());
    w.field("dram_reads", m.dram.reads);
    w.field("dram_writes", m.dram.writes);
    w.field("dram_activates", m.dram.activates);
    w.field("row_hit_rate", m.dram.row_hit_rate());
    w.end_object();
    w.key("ft");
    w.begin_object();
    w.field("verifications", m.ft.verifications);
    w.field("errors_detected", m.ft.errors_detected);
    w.field("errors_corrected", m.ft.errors_corrected);
    w.field("hw_notifications_used", m.ft.hw_notifications_used);
    w.field("encode_seconds", m.ft.encode_seconds);
    w.field("verify_seconds", m.ft.verify_seconds);
    w.field("correct_seconds", m.ft.correct_seconds);
    w.end_object();
    w.field("refs_abft", m.refs_abft);
    w.field("refs_other", m.refs_other);
    w.field("abft_bytes", m.abft_bytes);
    w.field("total_bytes", m.total_bytes);
    w.field("exposed_dropped", m.exposed_dropped);
    w.end_object();
  }

  std::string experiment_;
  std::string paper_ref_;
  sim::PlatformOptions* opt_ = nullptr;
  sim::CliReport cli_;
  std::vector<std::pair<std::string, sim::RunMetrics>> runs_;
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::pair<std::string, std::string>> sections_;
};

}  // namespace abftecc::bench

// Low-overhead metrics registry (tentpole piece 1 of the observability
// subsystem): named counters, gauges, and fixed-bucket latency histograms
// with pluggable output sinks (pretty table, JSON, JSON-lines, CSV).
//
// Design constraints, in order:
//  * hot-path cost: an update is one add on a cached reference -- no name
//    lookup, no allocation, no lock (instruments are thread-confined:
//    every thread sees its own default_registry(), so parallel campaign
//    trials never share an instrument);
//  * stable identity: instruments live as long as the registry, so layers
//    cache `Counter&`/`Histogram&` at construction and update blindly;
//  * resettable values: `Registry::reset()` zeroes every instrument but
//    keeps the registrations, so per-run accounting (and the
//    MemorySystem::reset_stats() contract) works without re-wiring.
//
// Naming convention: dotted lower-case paths, `<layer>.<quantity>`, e.g.
// `memsim.demand_miss_stall_cycles`, `os.panics`, `fault.injected_flips`.
// The full taxonomy is listed in README.md ("Observability").
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace abftecc::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t d = 1) { value_ += d; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written level (occupancy, ratio, configuration knob).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  [[nodiscard]] double value() const { return value_; }
  void reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram. Bucket `i < bounds.size()` counts observations
/// with `v <= bounds[i]` (and `v > bounds[i-1]`); one implicit overflow
/// bucket catches the rest. Bounds are fixed at registration so repeated
/// runs aggregate into identical shapes.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  /// Geometric bucket ladder: first, first*factor, ... (n bounds).
  static std::vector<double> exponential_bounds(double first, double factor,
                                                std::size_t n);

  void observe(double v) {
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    ++buckets_[i];
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Number of buckets including the overflow bucket.
  [[nodiscard]] std::size_t num_buckets() const { return buckets_.size(); }
  /// Inclusive upper bound of bucket `i`; +inf for the overflow bucket.
  [[nodiscard]] double upper_bound(std::size_t i) const;
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i];
  }

  void reset();

  /// Add `o`'s observations into this histogram (same bounds required).
  void merge(const Histogram& o);

 private:
  std::vector<double> bounds_;       ///< sorted, strictly increasing
  std::vector<std::uint64_t> buckets_;  ///< bounds_.size() + 1 (overflow)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Point-in-time copy of every instrument, for sinks and the bench report.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  struct HistogramRow {
    std::string name;
    std::uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1
  };
  std::vector<HistogramRow> histograms;
};

/// Owner of named instruments. Registration is idempotent: asking for an
/// existing name returns the same instrument (histogram bounds are taken
/// from the first registration).
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Zero every instrument's values; registrations (and cached references)
  /// stay valid.
  void reset();

  /// Fold `o` into this registry, registering names it lacks: counters,
  /// gauges and histograms add. Folding per-node registries in node order
  /// gives the registry a serial run over the same nodes would have built,
  /// exactly so for integer counts and integer-valued observations.
  void merge(const Registry& o);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  // --- sinks ---------------------------------------------------------------

  /// Human-readable table (alphabetical by name).
  void write_pretty(std::FILE* f) const;
  /// One JSON object per line: {"type":...,"name":...,...}.
  void write_json_lines(std::FILE* f) const;
  /// `name,kind,value` rows (histograms flattened to count/sum/max).
  void write_csv(std::FILE* f) const;
  /// One JSON object {"counters":{},"gauges":{},"histograms":{}}.
  [[nodiscard]] std::string to_json() const;

 private:
  // std::map with transparent comparison: deterministic iteration order
  // for the sinks, heterogeneous string_view lookup without temporaries.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Registry the simulation layers on this thread record into. Each thread
/// gets its own lazily-created instance (parallel campaign trials cannot
/// race on counters), and RegistryScope overrides it for a lexical scope.
Registry& default_registry();

/// RAII override of this thread's default_registry(): install `r`, restore
/// the previous binding on destruction. Scopes nest; destroy them LIFO.
/// sim::Session uses this to give each session private instruments.
class RegistryScope {
 public:
  explicit RegistryScope(Registry& r);
  ~RegistryScope();
  RegistryScope(const RegistryScope&) = delete;
  RegistryScope& operator=(const RegistryScope&) = delete;

 private:
  Registry* prev_;
};

}  // namespace abftecc::obs

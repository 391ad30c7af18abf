#include "obs/telemetry.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "obs/json.hpp"

namespace abftecc::obs {

namespace {

/// %.17g like the JSON writer: shortest round-trippable double.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---------------------------------------------------------------- rings --

TimeSeriesRing::TimeSeriesRing(std::size_t capacity)
    : buf_(capacity == 0 ? 1 : capacity) {}

void TimeSeriesRing::push(double t, double v) {
  buf_[next_] = TsPoint{t, v};
  next_ = (next_ + 1) % buf_.size();
  if (size_ < buf_.size()) ++size_;
  ++pushed_;
}

TsPoint TimeSeriesRing::at(std::size_t i) const {
  assert(i < size_);
  // Oldest point sits at next_ once the ring has wrapped, at 0 before.
  const std::size_t oldest = size_ == buf_.size() ? next_ : 0;
  return buf_[(oldest + i) % buf_.size()];
}

// -------------------------------------------------------------- sampler --

TelemetrySampler::TelemetrySampler(TelemetryOptions opt) : opt_(opt) {
  if (opt_.capacity == 0) opt_.capacity = 1;
}

TelemetrySampler::Series& TelemetrySampler::series_for(std::string_view name,
                                                       SeriesKind kind) {
  for (Series& s : series_) {
    if (s.kind == kind && s.name == name) return s;
  }
  series_.push_back(Series{std::string(name), kind,
                           TimeSeriesRing(opt_.capacity), 0.0});
  return series_.back();
}

const TelemetrySampler::Series* TelemetrySampler::find(std::string_view name,
                                                       SeriesKind kind) const {
  for (const Series& s : series_) {
    if (s.kind == kind && s.name == name) return &s;
  }
  return nullptr;
}

bool TelemetrySampler::sample(const Registry& r, double t_s) {
  if (have_last_t_ && t_s - last_t_ < opt_.min_interval_s) return false;
  last_t_ = t_s;
  have_last_t_ = true;
  ++samples_;

  const MetricsSnapshot snap = r.snapshot();
  for (const auto& [name, value] : snap.counters) {
    Series& s = series_for(name, SeriesKind::kCounter);
    const auto v = static_cast<double>(value);
    s.ring.push(t_s, v - s.last);
    s.last = v;
  }
  for (const auto& [name, value] : snap.gauges) {
    Series& s = series_for(name, SeriesKind::kGauge);
    s.ring.push(t_s, value);
    s.last = value;
  }
  for (const MetricsSnapshot::HistogramRow& h : snap.histograms) {
    Series& c = series_for(h.name, SeriesKind::kHistogramCount);
    const auto count = static_cast<double>(h.count);
    c.ring.push(t_s, count - c.last);
    c.last = count;
    Series& s = series_for(h.name, SeriesKind::kHistogramSum);
    s.ring.push(t_s, h.sum - s.last);
    s.last = h.sum;
  }
  return true;
}

bool TelemetrySampler::sample(const Registry& r) {
  const std::uint64_t now = steady_now_ns();
  if (!have_clock_t0_) {
    clock_t0_ = now;
    have_clock_t0_ = true;
  }
  return sample(r, static_cast<double>(now - clock_t0_) * 1e-9);
}

std::string TelemetrySampler::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "timeseries-v1");
  w.field("samples", samples_);
  w.key("series").begin_array();
  for (const Series& s : series_) {
    w.begin_object();
    w.field("name", s.name);
    w.field("kind", to_string(s.kind));
    w.field("dropped",
            static_cast<std::uint64_t>(s.ring.total_pushed() - s.ring.size()));
    w.key("points").begin_array();
    for (std::size_t i = 0; i < s.ring.size(); ++i) {
      const TsPoint p = s.ring.at(i);
      w.begin_array().value(p.t).value(p.v).end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

// ----------------------------------------------------- OpenMetrics text --

std::string openmetrics_name(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 1);
  for (char c : raw) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

std::string openmetrics_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

namespace {

constexpr std::string_view type_name(OpenMetricsWriter::Type t) {
  switch (t) {
    case OpenMetricsWriter::Type::kCounter: return "counter";
    case OpenMetricsWriter::Type::kGauge: return "gauge";
    case OpenMetricsWriter::Type::kHistogram: return "histogram";
  }
  return "?";
}

/// Exposition value formatting. +Inf spelling is the OpenMetrics one.
std::string format_value(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  return format_double(v);
}

}  // namespace

void OpenMetricsWriter::family(std::string_view name, Type t) {
  std::string n = openmetrics_name(name);
  assert(std::find(seen_.begin(), seen_.end(), n) == seen_.end() &&
         "exposition family opened twice");
  seen_.push_back(n);
  out_ += "# TYPE ";
  out_ += n;
  out_ += ' ';
  out_ += type_name(t);
  out_ += '\n';
  family_ = std::move(n);
  family_type_ = t;
}

void OpenMetricsWriter::sample(double value,
                               const std::vector<MetricLabel>& labels,
                               std::string_view suffix) {
  assert(!family_.empty() && "sample before family()");
  out_ += family_;
  if (suffix.empty() && family_type_ == Type::kCounter) suffix = "_total";
  out_ += suffix;
  if (!labels.empty()) {
    out_ += '{';
    bool first = true;
    for (const MetricLabel& l : labels) {
      if (!first) out_ += ',';
      first = false;
      out_ += l.name;
      out_ += "=\"";
      out_ += openmetrics_escape(l.value);
      out_ += '"';
    }
    out_ += '}';
  }
  out_ += ' ';
  out_ += format_value(value);
  out_ += '\n';
}

void OpenMetricsWriter::histogram(const std::vector<double>& bounds,
                                  const std::vector<std::uint64_t>& buckets,
                                  double sum,
                                  const std::vector<MetricLabel>& labels) {
  assert(family_type_ == Type::kHistogram);
  assert(buckets.size() == bounds.size() + 1);
  std::uint64_t cumulative = 0;
  std::vector<MetricLabel> with_le = labels;
  with_le.push_back(MetricLabel{"le", ""});
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    cumulative += buckets[i];
    with_le.back().value = format_value(bounds[i]);
    sample(static_cast<double>(cumulative), with_le, "_bucket");
  }
  cumulative += buckets.back();
  with_le.back().value = "+Inf";
  sample(static_cast<double>(cumulative), with_le, "_bucket");
  sample(static_cast<double>(cumulative), labels, "_count");
  sample(sum, labels, "_sum");
}

void OpenMetricsWriter::snapshot(const MetricsSnapshot& snap,
                                 const std::vector<MetricLabel>& base_labels) {
  for (const auto& [name, value] : snap.counters) {
    family(name, Type::kCounter);
    sample(static_cast<double>(value), base_labels);
  }
  for (const auto& [name, value] : snap.gauges) {
    family(name, Type::kGauge);
    sample(value, base_labels);
  }
  for (const MetricsSnapshot::HistogramRow& h : snap.histograms) {
    family(h.name, Type::kHistogram);
    histogram(h.bounds, h.buckets, h.sum, base_labels);
  }
}

std::string OpenMetricsWriter::take() {
  out_ += "# EOF\n";
  family_.clear();
  seen_.clear();
  return std::move(out_);
}

}  // namespace abftecc::obs

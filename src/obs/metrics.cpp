#include "obs/metrics.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace abftecc::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  ABFTECC_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()));
  ABFTECC_REQUIRE(std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                  bounds_.end());
  buckets_.assign(bounds_.size() + 1, 0);
}

std::vector<double> Histogram::exponential_bounds(double first, double factor,
                                                  std::size_t n) {
  ABFTECC_REQUIRE(first > 0.0 && factor > 1.0);
  std::vector<double> out;
  out.reserve(n);
  double b = first;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(b);
    b *= factor;
  }
  return out;
}

double Histogram::upper_bound(std::size_t i) const {
  return i < bounds_.size() ? bounds_[i]
                            : std::numeric_limits<double>::infinity();
}

void Histogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  max_ = 0.0;
}

void Histogram::merge(const Histogram& o) {
  ABFTECC_REQUIRE(bounds_ == o.bounds_);
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    buckets_[i] += o.buckets_[i];
  max_ = std::max(max_, o.max_);
  count_ += o.count_;
  sum_ += o.sum_;
}

Counter& Registry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_
              .emplace(std::string(name),
                       std::make_unique<Histogram>(std::move(bounds)))
              .first->second;
}

void Registry::reset() {
  for (auto& [_, c] : counters_) c->reset();
  for (auto& [_, g] : gauges_) g->reset();
  for (auto& [_, h] : histograms_) h->reset();
}

void Registry::merge(const Registry& o) {
  for (const auto& [name, c] : o.counters_) counter(name).add(c->value());
  for (const auto& [name, g] : o.gauges_) gauge(name).add(g->value());
  for (const auto& [name, h] : o.histograms_)
    histogram(name, h->bounds()).merge(*h);
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    snap.counters.emplace_back(name, c->value());
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_)
    snap.gauges.emplace_back(name, g->value());
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramRow row;
    row.name = name;
    row.count = h->count();
    row.sum = h->sum();
    row.max = h->max();
    for (std::size_t i = 0; i + 1 < h->num_buckets(); ++i)
      row.bounds.push_back(h->upper_bound(i));
    for (std::size_t i = 0; i < h->num_buckets(); ++i)
      row.buckets.push_back(h->bucket_count(i));
    snap.histograms.push_back(std::move(row));
  }
  return snap;
}

void Registry::write_pretty(std::FILE* f) const {
  for (const auto& [name, c] : counters_)
    std::fprintf(f, "%-44s %20llu\n", name.c_str(),
                 static_cast<unsigned long long>(c->value()));
  for (const auto& [name, g] : gauges_)
    std::fprintf(f, "%-44s %20.6g\n", name.c_str(), g->value());
  for (const auto& [name, h] : histograms_) {
    std::fprintf(f, "%-44s count %llu mean %.3g max %.3g\n", name.c_str(),
                 static_cast<unsigned long long>(h->count()), h->mean(),
                 h->max());
    for (std::size_t i = 0; i < h->num_buckets(); ++i) {
      if (h->bucket_count(i) == 0) continue;
      if (i + 1 < h->num_buckets())
        std::fprintf(f, "    le %-12.6g %llu\n", h->upper_bound(i),
                     static_cast<unsigned long long>(h->bucket_count(i)));
      else
        std::fprintf(f, "    le +inf        %llu\n",
                     static_cast<unsigned long long>(h->bucket_count(i)));
    }
  }
}

namespace {

void histogram_json(JsonWriter& w, const Histogram& h) {
  w.begin_object();
  w.field("count", h.count());
  w.field("sum", h.sum());
  w.field("max", h.max());
  w.key("bounds").begin_array();
  for (std::size_t i = 0; i + 1 < h.num_buckets(); ++i)
    w.value(h.upper_bound(i));
  w.end_array();
  w.key("buckets").begin_array();
  for (std::size_t i = 0; i < h.num_buckets(); ++i) w.value(h.bucket_count(i));
  w.end_array();
  w.end_object();
}

}  // namespace

void Registry::write_json_lines(std::FILE* f) const {
  for (const auto& [name, c] : counters_) {
    JsonWriter w;
    w.begin_object()
        .field("type", "counter")
        .field("name", std::string_view(name))
        .field("value", c->value())
        .end_object();
    std::fprintf(f, "%s\n", w.str().c_str());
  }
  for (const auto& [name, g] : gauges_) {
    JsonWriter w;
    w.begin_object()
        .field("type", "gauge")
        .field("name", std::string_view(name))
        .field("value", g->value())
        .end_object();
    std::fprintf(f, "%s\n", w.str().c_str());
  }
  for (const auto& [name, h] : histograms_) {
    JsonWriter w;
    w.begin_object()
        .field("type", "histogram")
        .field("name", std::string_view(name));
    w.key("data");
    histogram_json(w, *h);
    w.end_object();
    std::fprintf(f, "%s\n", w.str().c_str());
  }
}

void Registry::write_csv(std::FILE* f) const {
  std::fprintf(f, "name,kind,value\n");
  for (const auto& [name, c] : counters_)
    std::fprintf(f, "%s,counter,%llu\n", name.c_str(),
                 static_cast<unsigned long long>(c->value()));
  for (const auto& [name, g] : gauges_)
    std::fprintf(f, "%s,gauge,%.17g\n", name.c_str(), g->value());
  for (const auto& [name, h] : histograms_) {
    std::fprintf(f, "%s.count,histogram,%llu\n", name.c_str(),
                 static_cast<unsigned long long>(h->count()));
    std::fprintf(f, "%s.sum,histogram,%.17g\n", name.c_str(), h->sum());
    std::fprintf(f, "%s.max,histogram,%.17g\n", name.c_str(), h->max());
  }
}

std::string Registry::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_)
    w.field(std::string_view(name), c->value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_)
    w.field(std::string_view(name), g->value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    histogram_json(w, *h);
  }
  w.end_object();
  w.end_object();
  return w.take();
}

namespace {

Registry*& registry_slot() {
  thread_local Registry* slot = nullptr;
  return slot;
}

}  // namespace

Registry& default_registry() {
  if (Registry* r = registry_slot(); r != nullptr) return *r;
  thread_local Registry owned;
  return owned;
}

RegistryScope::RegistryScope(Registry& r) : prev_(registry_slot()) {
  registry_slot() = &r;
}

RegistryScope::~RegistryScope() { registry_slot() = prev_; }

}  // namespace abftecc::obs

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/json.hpp"
#include "perfbench.hpp"

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned worker_count() {
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

std::mutex g_mu;  // guards every Spans member below
std::unique_ptr<Spans> g_spans;
std::atomic<unsigned> g_next_tid{0};
thread_local unsigned t_tid = g_next_tid++;
thread_local std::vector<int> t_open;  // innermost span last

}  // namespace

Spans* spans() { return g_spans.get(); }
void enable_spans() { g_spans = std::make_unique<Spans>(); }

int Spans::begin(std::string_view name, std::uint64_t id, int parent) {
  const double t0 =
      std::chrono::duration<double>(Clock::now() - epoch_).count();
  if (parent == kNoParent && !t_open.empty()) parent = t_open.back();
  std::lock_guard<std::mutex> lock(g_mu);
  spans_.push_back(Span{std::string(name), id, parent, t0, -1.0, t_tid});
  const int s = static_cast<int>(spans_.size() - 1);
  t_open.push_back(s);
  return s;
}

void Spans::end(int s) {
  const double t1 =
      std::chrono::duration<double>(Clock::now() - epoch_).count();
  std::erase(t_open, s);
  std::lock_guard<std::mutex> lock(g_mu);
  spans_[static_cast<std::size_t>(s)].t1 = t1;
}

double Spans::self_seconds(int s) const {
  std::lock_guard<std::mutex> lock(g_mu);
  const Span& sp = spans_[static_cast<std::size_t>(s)];
  if (sp.t1 < 0) return 0.0;
  // Children may run concurrently (pool workers), so subtract the union of
  // their intervals, clipped to the parent.
  std::vector<std::pair<double, double>> kids;
  for (const Span& c : spans_)
    if (c.parent == s && c.t1 >= 0)
      kids.emplace_back(std::max(c.t0, sp.t0), std::min(c.t1, sp.t1));
  std::sort(kids.begin(), kids.end());
  double covered = 0.0, lo = 0.0, hi = -1.0;
  for (const auto& [a, b] : kids) {
    if (a > hi) {
      if (hi > lo) covered += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi > lo) covered += hi - lo;
  return (sp.t1 - sp.t0) - covered;
}

std::size_t Spans::size() const {
  std::lock_guard<std::mutex> lock(g_mu);
  return spans_.size();
}

bool Spans::write_chrome_trace(const std::string& path) const {
  abftecc::obs::JsonWriter w;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    w.begin_object().key("traceEvents").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      if (sp.t1 < 0) continue;
      w.begin_object()
          .field("name", std::string_view(sp.name))
          .field("cat", "perfbench")
          .field("ph", "X")
          .field("ts", sp.t0 * 1e6)
          .field("dur", (sp.t1 - sp.t0) * 1e6)
          .field("pid", 1)
          .field("tid", sp.tid)
          .key("args")
          .begin_object()
          .field("span", static_cast<std::uint64_t>(i))
          .field("parent", static_cast<std::int64_t>(sp.parent))
          .field("id", sp.id)
          .end_object()
          .end_object();
    }
    w.end_array().field("displayTimeUnit", "ms").end_object();
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string& s = w.str();
  const bool ok = std::fwrite(s.data(), 1, s.size(), f) == s.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench

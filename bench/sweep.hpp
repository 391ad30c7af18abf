// Shared 6-strategy x 4-kernel sweep used by the Figure 5/6/7 harnesses.
#pragma once

#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/report.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sim/platform.hpp"
#include "sim/strategy.hpp"

namespace abftecc::bench {

inline constexpr std::array<sim::Kernel, 4> kSweepKernels = {
    sim::Kernel::kDgemm, sim::Kernel::kCholesky, sim::Kernel::kCg,
    sim::Kernel::kHpl};

struct Sweep {
  std::map<std::pair<int, int>, sim::RunMetrics> results;

  const sim::RunMetrics& at(sim::Kernel k, sim::Strategy s) const {
    return results.at({static_cast<int>(k), static_cast<int>(s)});
  }
};

/// Run every (kernel, strategy) cell, each on a fresh simulated node, on
/// all hardware threads (the calling thread works too). Cells are claimed
/// in kernel-major order so the long FT-DGEMM cells start first.
///
/// A cell's results depend only on its options, so the sweep equals a
/// serial run_kernel() loop. Each cell records into instruments of its own;
/// after the join they are folded into this thread's defaults in cell
/// order: registries merge, tracer events append, and under base.profile
/// the profiler holds the last cell's tree -- what the serial loop leaves.
inline Sweep run_sweep(const sim::PlatformOptions& base) {
  struct Cell {
    sim::Kernel kernel{};
    sim::Strategy strategy{};
    sim::RunMetrics metrics;
    obs::Registry registry;
    obs::Tracer tracer;
  };
  constexpr std::size_t kStrategies = sim::kAllStrategies.size();
  std::vector<Cell> cells(kSweepKernels.size() * kStrategies);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].kernel = kSweepKernels[i / kStrategies];
    cells[i].strategy = sim::kAllStrategies[i % kStrategies];
  }

  obs::Tracer& tracer = obs::default_tracer();
  obs::PhaseProfiler last_profile;
  std::atomic<std::size_t> next{0};
  std::mutex failure_mu;
  std::exception_ptr failure;  // first cell error, rethrown after the join
  auto worker = [&] {
    try {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= cells.size()) return;
        Cell& c = cells[i];
        c.tracer.set_capacity(tracer.capacity());
        c.tracer.set_mask(tracer.mask());
        c.tracer.enable(tracer.enabled());
        obs::PhaseProfiler profile;
        {
          const obs::RegistryScope registry_scope(c.registry);
          const obs::TracerScope tracer_scope(c.tracer);
          const obs::ProfilerScope profiler_scope(profile);
          sim::PlatformOptions opt = base;
          opt.strategy = c.strategy;
          c.metrics = sim::run_kernel(c.kernel, opt);
        }
        if (i + 1 == cells.size()) last_profile = std::move(profile);
        // Hand the finished node's pages back to the OS before the next
        // claim, so concurrent cells do not stack on each other's freed
        // heap and the sweep keeps a serial sweep's peak RSS.
        malloc_trim(0);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(failure_mu);
      if (!failure) failure = std::current_exception();
      next.store(cells.size(), std::memory_order_relaxed);  // stop claims
    }
  };
  malloc_trim(0);
  std::vector<std::thread> pool;
  const unsigned nthreads = std::max(1u, std::thread::hardware_concurrency());
  pool.reserve(nthreads - 1);
  for (unsigned t = 1; t < nthreads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& th : pool) th.join();
  if (failure) std::rethrow_exception(failure);

  Sweep sweep;
  for (Cell& c : cells) {
    obs::default_registry().merge(c.registry);
    tracer.append(c.tracer);
    sweep.results.emplace(std::make_pair(static_cast<int>(c.kernel),
                                         static_cast<int>(c.strategy)),
                          std::move(c.metrics));
  }
  if (base.profile) obs::default_profiler() = std::move(last_profile);
  return sweep;
}

/// Record every sweep cell in the report as "<kernel>/<strategy>".
inline void add_sweep(Report& rep, const Sweep& sweep) {
  for (const auto kernel : kSweepKernels)
    for (const auto strategy : sim::kAllStrategies)
      rep.add_run(std::string(sim::kernel_name(kernel)) + "/" +
                      std::string(sim::spec(strategy).label),
                  sweep.at(kernel, strategy));
}

}  // namespace abftecc::bench

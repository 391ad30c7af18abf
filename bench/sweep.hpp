// The 6-strategy x 4-kernel paper sweep behind Figures 5-7 (paper_sweep),
// and the front-end record/replay entry the back-end comparisons share.
#pragma once

#include <malloc.h>

#include <algorithm>
#include <array>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "bench/report.hpp"
#include "common/error.hpp"
#include "memsim/front_end.hpp"
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
  /// Cells that ran their front end live and recorded it, and cells that
  /// replayed a record (DESIGN.md section 6c).
  std::size_t recordings = 0, replays = 0;

  const sim::RunMetrics& at(sim::Kernel k, sim::Strategy s) const {
    return results.at({static_cast<int>(k), static_cast<int>(s)});
  }
};

/// Run `kernel` under `opt` on a fresh node: live when both pointers are
/// null, else recording its front end into `record` or replaying `replay`.
inline sim::RunMetrics run_cell(sim::Kernel kernel,
                                const sim::PlatformOptions& opt,
                                memsim::FrontEndRecord* record,
                                const memsim::FrontEndRecord* replay) {
  sim::Session::Builder b(opt);
  if (record != nullptr) b.record_front_end(*record);
  if (replay != nullptr) b.replay_front_end(*replay);
  return b.build().run(kernel);
}

/// Serial runs that simulate each kernel's front end once: the first
/// simulated run of a kernel is live and records it, later runs of that
/// kernel replay the record. Their options may differ only in the DRAM back
/// end (sim::same_front_end); native runs are always live.
class FrontEnds {
 public:
  sim::RunMetrics run(sim::Kernel kernel, const sim::PlatformOptions& opt) {
    if (opt.backend != BackendMode::kSimulated)
      return run_cell(kernel, opt, nullptr, nullptr);
    const auto it = records_.find(kernel);
    if (it != records_.end()) {
      ABFTECC_REQUIRE(sim::same_front_end(it->second.first, opt));
      return run_cell(kernel, opt, nullptr, &it->second.second);
    }
    memsim::FrontEndRecord rec;
    sim::RunMetrics m = run_cell(kernel, opt, &rec, nullptr);
    records_.emplace(kernel, std::make_pair(opt, std::move(rec)));
    return m;
  }

 private:
  std::map<sim::Kernel,
           std::pair<sim::PlatformOptions, memsim::FrontEndRecord>>
      records_;
};

/// Run every (kernel, strategy) cell, each on a fresh simulated node, on
/// all hardware threads (the calling thread works too).
///
/// The strategies differ only in the DRAM back end, so one cell per kernel
/// (its first strategy) runs live and records its front end, and the other
/// five replay that record. The four recording cells are claimed first,
/// longest kernel first; a kernel's replay cells become claimable once its
/// record is done, and the record is freed after its last replay. The
/// recovery ladder is not a fault-free run and cannot be replayed, so a
/// simulated sweep REQUIREs it off. Native-backend sweeps run every cell
/// live.
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
  const bool replay = base.backend == BackendMode::kSimulated;
  ABFTECC_REQUIRE(!replay || !base.ladder);
  std::vector<Cell> cells(kSweepKernels.size() * kStrategies);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].kernel = kSweepKernels[i / kStrategies];
    cells[i].strategy = sim::kAllStrategies[i % kStrategies];
  }
  // One record per kernel; it is written only by its recording cell and
  // read by replay cells claimed after that cell is done.
  std::array<memsim::FrontEndRecord, kSweepKernels.size()> records;
  obs::Tracer& tracer = obs::default_tracer();
  obs::PhaseProfiler last_profile;

  // Scheduling state, guarded by mu. Claimable cells go lowest index first:
  // kernel-major order puts the long FT-DGEMM cells ahead. Until a record
  // is done only recording cells (and, for a native sweep, every cell) are
  // claimable.
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::size_t> ready;
  for (std::size_t i = 0; i < cells.size(); ++i)
    if (!replay || i % kStrategies == 0) ready.insert(i);
  std::size_t unfinished = cells.size();
  std::array<std::size_t, kSweepKernels.size()> replays_left;
  replays_left.fill(kStrategies - 1);
  std::size_t recorded = 0, replayed = 0;
  std::exception_ptr failure;  // first cell error, rethrown after the join

  // Claims the next cell, or returns false once no cell is left to run.
  auto claim = [&](std::size_t& i) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock,
            [&] { return !ready.empty() || unfinished == 0 || failure; });
    if (ready.empty() || failure) return false;
    i = *ready.begin();
    ready.erase(ready.begin());
    return true;
  };
  auto worker = [&] {
    try {
      std::size_t i = 0;
      while (claim(i)) {
        Cell& c = cells[i];
        const std::size_t k = i / kStrategies;
        const bool records_front_end = replay && i % kStrategies == 0;
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
          c.metrics = run_cell(
              c.kernel, opt, records_front_end ? &records[k] : nullptr,
              replay && !records_front_end ? &records[k] : nullptr);
        }
        if (i + 1 == cells.size()) last_profile = std::move(profile);
        {
          const std::lock_guard<std::mutex> lock(mu);
          --unfinished;
          if (records_front_end) {
            ++recorded;
            for (std::size_t j = i + 1; j < i + kStrategies; ++j)
              ready.insert(j);
          } else if (replay) {
            ++replayed;
            if (--replays_left[k] == 0) records[k] = {};
          }
        }
        cv.notify_all();
        // Hand the finished node's pages back to the OS before the next
        // claim, so concurrent cells do not stack on each other's freed
        // heap and the sweep keeps a serial sweep's peak RSS.
        malloc_trim(0);
      }
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(mu);
        if (!failure) failure = std::current_exception();
      }
      cv.notify_all();  // stop claims
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
  sweep.recordings = recorded;
  sweep.replays = replayed;
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

#include "memsim/system.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace abftecc::memsim {

MemorySystem::MemorySystem(const SystemConfig& cfg, ecc::Scheme default_scheme,
                           Hooks hooks)
    : cfg_(cfg),
      map_(cfg.org, cfg.l2.line_bytes),
      l1_(cfg.l1),
      l2_(cfg.l2),
      dram_(cfg, map_),
      mc_(default_scheme),
      miss_stall_hist_(obs::default_registry().histogram(
          "memsim.demand_miss_stall_cycles",
          obs::Histogram::exponential_bounds(16.0, 2.0, 10))),
      queue_delay_hist_(obs::default_registry().histogram(
          "memsim.queue_delay_dram_cycles",
          obs::Histogram::exponential_bounds(1.0, 2.0, 10))),
      dram_access_none_(
          obs::default_registry().counter("memsim.dram_access.none")),
      dram_access_secded_(
          obs::default_registry().counter("memsim.dram_access.secded")),
      dram_access_chipkill_(
          obs::default_registry().counter("memsim.dram_access.chipkill")),
      hooks_(std::move(hooks)) {}

AccessShape MemorySystem::shape_at(std::uint64_t phys, ecc::Scheme s) const {
  if (hooks_.shape_override) {
    if (auto shape = hooks_.shape_override(phys, s)) return *shape;
  }
  return shape_for(s);
}

void MemorySystem::dram_request(std::uint64_t line_addr, bool is_write,
                                bool blocking) {
  if (recorder_ != nullptr) recorder_->dram(line_addr, is_write, blocking);
  const ecc::Scheme scheme = mc_.scheme_for(line_addr);
  const AccessShape shape = shape_at(line_addr, scheme);
  const DramAddress da = map_.decompose(line_addr);
  const Cycles now = now_dram();
  const DramAccessResult res = dram_.issue(da, is_write, shape, now);
  // One classification serves the energy split and the demand-miss count.
  const bool abft =
      hooks_.region_classifier && hooks_.region_classifier(line_addr);
  stats_.dram_dynamic_pj += res.energy_pj;
  (abft ? stats_.dram_dynamic_abft_pj : stats_.dram_dynamic_other_pj) +=
      res.energy_pj;

  switch (scheme) {
    case ecc::Scheme::kNone: dram_access_none_.add(); break;
    case ecc::Scheme::kSecded: dram_access_secded_.add(); break;
    case ecc::Scheme::kChipkill: dram_access_chipkill_.add(); break;
  }
  // Queueing delay: how long the request waited for bank/bus resources
  // (0 on an idle channel).
  queue_delay_hist_.observe(
      res.start > now ? static_cast<double>(res.start - now) : 0.0);

  if (is_write) ++stats_.writebacks;
  // Fills apply pending faults through the decoder; writebacks clear them.
  if (hooks_.fill_hook) hooks_.fill_hook(line_addr, scheme, is_write);

  if (blocking) {
    // A demand fill: the only blocking request of an L2 miss.
    ++stats_.demand_misses;
    ++(abft ? stats_.demand_misses_abft : stats_.demand_misses_other);
    const double stall_dram = static_cast<double>(res.completion - now);
    const std::uint64_t stall_cpu =
        static_cast<std::uint64_t>(stall_dram *
                                   cfg_.core.cpu_per_dram_cycle()) +
        kMcOverheadCpuCycles;
    miss_stall_hist_.observe(static_cast<double>(stall_cpu));
    obs::default_tracer().instant(obs::EventKind::kDemandMiss,
                                  stats_.cpu_cycles, line_addr, stall_cpu);
    stats_.cpu_cycles += stall_cpu;
    stats_.stall_cycles += stall_cpu;
  }
}

void MemorySystem::access(std::uint64_t phys_addr, AccessKind kind) {
  count_access();

  const bool is_write = kind != AccessKind::kRead;
  const std::uint64_t line =
      phys_addr & ~(std::uint64_t{cfg_.l1.line_bytes} - 1);

  const CacheAccess a1 = l1_.access(line, is_write);
  if (a1.hit) return;
  if (recorder_ != nullptr) recorder_->l1_miss(stats_.mem_refs - 1);

  stats_.cpu_cycles += cfg_.l2_latency_cycles;

  // L1 victim writeback into L2 (write-back L1).
  if (a1.evicted && a1.evicted_dirty) {
    const CacheAccess wb = l2_.access(a1.evicted_line_addr, true);
    if (!wb.hit) {
      // Writeback miss: allocate in L2, posted fill from DRAM.
      dram_request(a1.evicted_line_addr, false, /*blocking=*/false);
      if (wb.evicted && wb.evicted_dirty)
        dram_request(wb.evicted_line_addr, true, /*blocking=*/false);
    }
  }

  // Demand access reaches L2 as a read fill; dirtiness lives in L1 until
  // the line is written back.
  const CacheAccess a2 = l2_.access(line, false);
  if (a2.hit) return;

  if (a2.evicted && a2.evicted_dirty)
    dram_request(a2.evicted_line_addr, true, /*blocking=*/false);

  dram_request(line, false, /*blocking=*/true);
}

void MemorySystem::replay_front_end(const FrontEndRecord* rec) {
  if (rec == nullptr) {
    settle();
    cursor_.reset();
    return;
  }
  ABFTECC_REQUIRE(!cursor_.has_value());
  cursor_.emplace(*rec);
}

void MemorySystem::replay_deferred() {
  FrontEndCursor& cur = *cursor_;
  std::uint64_t refs = deferred_;
  deferred_ = 0;
  replayed_refs_ += refs;
  while (refs != 0) {
    // The references before the next event are L1 hits within one line.
    // (A replay that diverged from its record leaves the cursor behind:
    // the subtraction wraps, no event matches again, and finishing the run
    // finds the record unconsumed.)
    const std::uint64_t quiet = std::min(refs, cur.at() - stats_.mem_refs);
    count_access(quiet);
    refs -= quiet;
    if (refs == 0) return;
    const std::uint64_t a = stats_.mem_refs;
    count_access();
    replay_events(cur, a);
    --refs;
  }
}

void MemorySystem::replay_events(FrontEndCursor& cur, std::uint64_t access) {
  if (!cur.straddle()) replay_miss(cur);
  if (cur.at() != access || !cur.straddle()) return;
  cur.advance();
  count_access();
  if (cur.at() == access + 1) replay_miss(cur);
}

void MemorySystem::replay_miss(FrontEndCursor& cur) {
  ABFTECC_REQUIRE(!cur.straddle());
  stats_.cpu_cycles += cfg_.l2_latency_cycles;
  DramRequest r;
  while (cur.next_request(r)) dram_request(r.line_addr, r.is_write, r.blocking);
  cur.advance();
}

Picojoules MemorySystem::processor_energy_pj() const {
  settle();
  const double ipc = std::min(stats_.ipc(), cfg_.core.peak_ipc);
  const double watts =
      cfg_.core.idle_socket_watts +
      (cfg_.core.max_socket_watts - cfg_.core.idle_socket_watts) *
          (ipc / cfg_.core.peak_ipc);
  return watts * elapsed_seconds() * kPicojoulesPerJoule;
}

void MemorySystem::reset_stats() {
  settle();
  stats_ = {};
  l1_.reset_stats();
  l2_.reset_stats();
  dram_.reset_stats();
  // The obs registry aggregates the same quantities (miss histograms,
  // per-scheme access counters); a stats reset that left it running would
  // double-count the warm-up phase in every per-run report.
  obs::default_registry().reset();
}

}  // namespace abftecc::memsim

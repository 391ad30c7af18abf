// Front end of the memory-system simulator: in-order core timing + L1/L2
// caches + memory controller + DDR3 engine + energy accounting.
//
// Timing model: the cores are in-order (Table 3), so memory stall time is
// additive -- total cycles = issued instructions (1 IPC base) + L2 hit
// latencies + DRAM read stalls. Demand reads block; dirty writebacks are
// posted, consuming DRAM bank/bus resources without stalling the core --
// which is how strong-ECC access shapes degrade performance: they keep
// channels busy longer and later demand reads queue behind them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/backend.hpp"
#include "common/units.hpp"
#include "ecc/scheme.hpp"
#include "memsim/address_map.hpp"
#include "memsim/cache.hpp"
#include "memsim/config.hpp"
#include "memsim/dram.hpp"
#include "memsim/front_end.hpp"
#include "memsim/memory_controller.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace abftecc::memsim {

enum class AccessKind : std::uint8_t { kRead, kWrite, kUpdate };

struct SystemStats {
  std::uint64_t instructions = 0;
  std::uint64_t cpu_cycles = 0;
  std::uint64_t stall_cycles = 0;  ///< cycles blocked on DRAM demand reads
  std::uint64_t mem_refs = 0;
  std::uint64_t demand_misses = 0;        ///< LLC (L2) demand misses
  std::uint64_t demand_misses_abft = 0;   ///< ... to ABFT-protected blocks
  std::uint64_t demand_misses_other = 0;  ///< ... to everything else
  std::uint64_t writebacks = 0;           ///< posted DRAM writes
  Picojoules dram_dynamic_pj = 0;
  Picojoules dram_dynamic_abft_pj = 0;   ///< dynamic energy on ABFT blocks
  Picojoules dram_dynamic_other_pj = 0;

  friend bool operator==(const SystemStats&, const SystemStats&) = default;

  [[nodiscard]] double ipc() const {
    return cpu_cycles == 0 ? 0.0
                           : static_cast<double>(instructions) /
                                 static_cast<double>(cpu_cycles);
  }
};

/// Per-access shape override used by the DGMS baseline; returns nullopt to
/// use the scheme's default 64B shape.
using ShapeOverride =
    std::function<std::optional<AccessShape>(std::uint64_t phys_addr,
                                             ecc::Scheme scheme)>;

/// Cross-layer instrumentation points of the memory system, gathered into
/// one aggregate passed at construction (or edited through hooks()). The
/// layers install themselves here -- os::Os owns region_classifier,
/// fault::Injector chains itself onto fill_hook -- and harness code adds
/// its own observers on top.
struct Hooks {
  /// Classifier for Table 4 / energy attribution: true if the physical
  /// address belongs to an ABFT-protected structure.
  std::function<bool(std::uint64_t)> region_classifier;
  /// Called on every DRAM transfer with (line address, active scheme,
  /// is_write). The fault-injection layer applies pending errors through
  /// the scheme's decoder on fills, and discards pending errors on
  /// writebacks (the write overwrites the corrupted DRAM cells).
  std::function<void(std::uint64_t, ecc::Scheme, bool)> fill_hook;
  /// DGMS-style per-access granularity override.
  ShapeOverride shape_override;
};

class MemorySystem {
 public:
  MemorySystem(const SystemConfig& cfg,
               ecc::Scheme default_scheme = ecc::Scheme::kChipkill,
               Hooks hooks = {});

  /// One memory reference from the core. kUpdate is a read-modify-write of
  /// one location (single cache access that dirties the line).
  void access(std::uint64_t phys_addr, AccessKind kind);

  /// One access replayed from `cur` instead of looked up (DESIGN.md section
  /// 6c): the core cost of an L1 hit, plus what the recorded front end did
  /// at this access -- the L2 latency of an L1 miss, its DRAM requests
  /// issued through the back end, and a straddling reference's second access.
  void replay_access(FrontEndCursor& cur) {
    const std::uint64_t a = stats_.mem_refs;
    count_access();
    if (a == cur.at()) replay_events(cur, a);
  }

  /// Record every L1 miss and DRAM request into `rec` from here on (null
  /// stops recording).
  void record_front_end(FrontEndRecord* rec) { recorder_ = rec; }

  /// Account `n` non-memory instructions (1 cycle each, in-order).
  void execute(std::uint64_t n) {
    stats_.instructions += n;
    stats_.cpu_cycles += n;
  }

  // --- wiring -------------------------------------------------------------

  MemoryController& controller() { return mc_; }
  const MemoryController& controller() const { return mc_; }
  const AddressMap& address_map() const { return map_; }
  const SystemConfig& config() const { return cfg_; }
  DramSystem& dram() { return dram_; }

  /// The live hook set (see Hooks). Mutable so layers can chain onto an
  /// already-installed hook instead of silently replacing it.
  [[nodiscard]] Hooks& hooks() { return hooks_; }
  [[nodiscard]] const Hooks& hooks() const { return hooks_; }

  // --- results ------------------------------------------------------------

  [[nodiscard]] const SystemStats& stats() const { return stats_; }
  /// Monotone-counter snapshot for the phase profiler: sim::Session binds
  /// a PhaseProfiler sampler to this.
  [[nodiscard]] obs::CounterSample counter_sample() const {
    return {stats_.cpu_cycles, stats_.stall_cycles, stats_.instructions,
            stats_.dram_dynamic_pj};
  }
  [[nodiscard]] const CacheStats& l1_stats() const { return l1_.stats(); }
  [[nodiscard]] const CacheStats& l2_stats() const { return l2_.stats(); }
  [[nodiscard]] const DramStats& dram_stats() const { return dram_.stats(); }

  [[nodiscard]] double elapsed_seconds() const {
    return static_cast<double>(stats_.cpu_cycles) /
           (cfg_.core.clock_ghz * 1e9);
  }
  [[nodiscard]] Picojoules memory_dynamic_energy_pj() const {
    return stats_.dram_dynamic_pj;
  }
  [[nodiscard]] Picojoules memory_standby_energy_pj() const {
    return dram_.standby_energy_pj(elapsed_seconds());
  }
  [[nodiscard]] Picojoules memory_energy_pj() const {
    return memory_dynamic_energy_pj() + memory_standby_energy_pj();
  }
  /// IPC-based linear scaling of socket power (paper Section 5 methodology).
  [[nodiscard]] Picojoules processor_energy_pj() const;
  [[nodiscard]] Picojoules system_energy_pj() const {
    return memory_energy_pj() + processor_energy_pj();
  }

  void reset_stats();

  /// Backend adapter: the simulator's native time source as a TickClock
  /// (common/backend.hpp). One tick = one CPU cycle at the modeled
  /// frequency; deterministic across runs, unlike host steady_clock.
  [[nodiscard]] TickClock cycle_clock() const {
    return TickClock(
        this,
        [](const void* s) {
          return static_cast<const MemorySystem*>(s)->stats().cpu_cycles;
        },
        1.0 / (cfg_.core.clock_ghz * 1e9));
  }

 private:
  [[nodiscard]] Cycles now_dram() const {
    return static_cast<Cycles>(static_cast<double>(stats_.cpu_cycles) /
                               cfg_.core.cpu_per_dram_cycle());
  }
  [[nodiscard]] AccessShape shape_at(std::uint64_t phys, ecc::Scheme s) const;
  /// One memory instruction plus its addressing/FP companion: the kernels
  /// under study perform roughly one arithmetic op per operand touched.
  void count_access() {
    ++stats_.mem_refs;
    stats_.instructions += 2;
    stats_.cpu_cycles += 2;
  }
  void count_demand_miss(std::uint64_t line_addr);
  void dram_request(std::uint64_t line_addr, bool is_write, bool blocking);
  void replay_events(FrontEndCursor& cur, std::uint64_t access);
  void replay_miss(FrontEndCursor& cur);
  void classify_energy(std::uint64_t line_addr, Picojoules pj);

  SystemConfig cfg_;
  AddressMap map_;
  Cache l1_;
  Cache l2_;
  DramSystem dram_;
  MemoryController mc_;
  SystemStats stats_;
  // Cached instruments from obs::default_registry(): demand-miss round-trip
  // latency, controller queueing delay, and per-scheme DRAM access shapes.
  obs::Histogram& miss_stall_hist_;
  obs::Histogram& queue_delay_hist_;
  obs::Counter& dram_access_none_;
  obs::Counter& dram_access_secded_;
  obs::Counter& dram_access_chipkill_;
  Hooks hooks_;
  FrontEndRecord* recorder_ = nullptr;
  /// Fixed controller/queueing overhead added to every DRAM round trip.
  static constexpr unsigned kMcOverheadCpuCycles = 12;
};

}  // namespace abftecc::memsim

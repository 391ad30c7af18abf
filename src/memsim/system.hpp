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
#include <optional>

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

  /// Record every L1 miss and DRAM request into `rec` from here on (null
  /// stops recording).
  void record_front_end(FrontEndRecord* rec) { recorder_ = rec; }

  /// Replay `rec` in place of the caches from here on (DESIGN.md section
  /// 6c): references come in through defer_reference() instead of access().
  /// Null settles and stops replaying.
  void replay_front_end(const FrontEndRecord* rec);
  /// One replayed reference. It is only counted here; settle() simulates
  /// it, with whatever the record says happened at it.
  void defer_reference() { ++deferred_; }
  /// The replay consumed its whole record.
  [[nodiscard]] bool replay_done() const {
    settle();
    return cursor_.has_value() && cursor_->done();
  }
  /// References the replay has taken so far.
  [[nodiscard]] std::uint64_t replayed_refs() const {
    settle();
    return replayed_refs_;
  }
  /// Simulate the deferred references in access order: the core cost of
  /// an L1 hit for each, and at each recorded event the L2 latency of an L1
  /// miss, its DRAM requests issued through the back end, or a straddling
  /// reference's second access. Every accessor that exposes simulated state
  /// and every handle that can change the back end settles first, so all
  /// state reads as if each reference had been simulated as it came; the
  /// Os also settles before it changes the region layout the classifier
  /// reads. Settling changes when the work is done, not what any reader
  /// sees, so the const accessors may do it (no MemorySystem is const).
  void settle() const {
    if (deferred_ != 0) const_cast<MemorySystem*>(this)->replay_deferred();
  }

  /// Account `n` non-memory instructions (1 cycle each, in-order).
  void execute(std::uint64_t n) {
    settle();
    stats_.instructions += n;
    stats_.cpu_cycles += n;
  }

  // --- wiring -------------------------------------------------------------

  MemoryController& controller() {
    settle();
    return mc_;
  }
  const MemoryController& controller() const {
    settle();
    return mc_;
  }
  const AddressMap& address_map() const { return map_; }
  const SystemConfig& config() const { return cfg_; }
  DramSystem& dram() {
    settle();
    return dram_;
  }

  /// The live hook set (see Hooks). Mutable so layers can chain onto an
  /// already-installed hook instead of silently replacing it.
  [[nodiscard]] Hooks& hooks() {
    settle();
    return hooks_;
  }
  [[nodiscard]] const Hooks& hooks() const { return hooks_; }

  // --- results ------------------------------------------------------------

  [[nodiscard]] const SystemStats& stats() const {
    settle();
    return stats_;
  }
  /// Monotone-counter snapshot for the phase profiler: sim::Session binds
  /// a PhaseProfiler sampler to this.
  [[nodiscard]] obs::CounterSample counter_sample() const {
    settle();
    return {stats_.cpu_cycles, stats_.stall_cycles, stats_.instructions,
            stats_.dram_dynamic_pj};
  }
  [[nodiscard]] const CacheStats& l1_stats() const { return l1_.stats(); }
  [[nodiscard]] const CacheStats& l2_stats() const { return l2_.stats(); }
  [[nodiscard]] const DramStats& dram_stats() const {
    settle();
    return dram_.stats();
  }

  [[nodiscard]] double elapsed_seconds() const {
    settle();
    return static_cast<double>(stats_.cpu_cycles) /
           (cfg_.core.clock_ghz * 1e9);
  }
  [[nodiscard]] Picojoules memory_dynamic_energy_pj() const {
    settle();
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
  /// `n` memory instructions, each with its addressing/FP companion: the
  /// kernels under study perform roughly one arithmetic op per operand
  /// touched.
  void count_access(std::uint64_t n = 1) {
    stats_.mem_refs += n;
    stats_.instructions += 2 * n;
    stats_.cpu_cycles += 2 * n;
  }
  void dram_request(std::uint64_t line_addr, bool is_write, bool blocking);
  void replay_deferred();
  void replay_events(FrontEndCursor& cur, std::uint64_t access);
  void replay_miss(FrontEndCursor& cur);

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
  /// Replay state: the record's cursor, the references not yet settled,
  /// and all references taken.
  std::optional<FrontEndCursor> cursor_;
  std::uint64_t deferred_ = 0;
  std::uint64_t replayed_refs_ = 0;
  /// Fixed controller/queueing overhead added to every DRAM round trip.
  static constexpr unsigned kMcOverheadCpuCycles = 12;
};

}  // namespace abftecc::memsim

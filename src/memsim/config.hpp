// Simulation parameters (paper Table 3) and scaled-down presets.
//
// The paper simulates: 4 in-order cores x 4 threads @2GHz, 16KB 4-way
// private L1s, one shared 8MB 16-way L2, 64B lines, DDR3-667 x4 1.5V,
// 4 channels x 2 DIMMs x 4 ranks x 8 banks, 8GB, open-page row buffers.
// `table3()` reproduces those numbers; `scaled()` shrinks the caches in
// proportion to the smaller matrix inputs a software per-access simulator
// can afford, keeping the footprint/LLC ratio of the paper's runs (see
// DESIGN.md substitution table).
#pragma once

#include <cstddef>
#include <cstdint>

namespace abftecc::memsim {

struct CacheConfig {
  std::size_t size_bytes = 0;
  unsigned ways = 1;
  unsigned line_bytes = 64;
  unsigned hit_latency_cycles = 1;  ///< CPU cycles

  friend bool operator==(const CacheConfig&, const CacheConfig&) = default;

  [[nodiscard]] std::size_t num_sets() const {
    return size_bytes / (static_cast<std::size_t>(ways) * line_bytes);
  }
};

/// DDR3 timing in DRAM clock cycles (DDR3-667: 667 MT/s, 333 MHz clock).
struct DramTiming {
  unsigned tCL = 5;    ///< CAS latency
  unsigned tRCD = 5;   ///< RAS-to-CAS
  unsigned tRP = 5;    ///< precharge
  unsigned tRAS = 15;  ///< row active minimum
  unsigned tBL = 4;    ///< data burst: 8 beats on a DDR bus = 4 clocks
  unsigned tWR = 5;    ///< write recovery
};

struct DramOrganization {
  unsigned channels = 4;
  unsigned dimms_per_channel = 2;
  unsigned ranks_per_dimm = 4;
  unsigned banks_per_rank = 8;
  /// Row-buffer (page) size per bank in bytes.
  std::size_t row_bytes = 8192;
  /// Per-rank x4 data chips (ECC chips are extra, see ecc::properties()).
  unsigned data_chips_per_rank = 16;
  unsigned ecc_chips_per_rank = 2;

  [[nodiscard]] unsigned total_ranks() const {
    return channels * dimms_per_channel * ranks_per_dimm;
  }
  [[nodiscard]] unsigned total_banks() const {
    return total_ranks() * banks_per_rank;
  }
  [[nodiscard]] unsigned total_chips() const {
    return total_ranks() * (data_chips_per_rank + ecc_chips_per_rank);
  }
};

enum class RowBufferPolicy : std::uint8_t { kOpenPage, kClosedPage };

/// Per-chip DDR3 x4 1.5V energy constants in the style of Micron TN-41-01:
/// dynamic energy is charged per operation per activated chip, background
/// power per powered chip per unit time.
struct DramPower {
  double act_pre_pj_per_chip = 1100.0;  ///< one ACT+PRE pair
  double read_pj_per_chip = 700.0;      ///< one 8-beat read burst
  double write_pj_per_chip = 800.0;     ///< one 8-beat write burst
  /// Output drivers plus on-die termination; on registered server DIMMs the
  /// termination network is a first-order energy term.
  double io_pj_per_chip = 600.0;
  double standby_mw_per_chip = 25.0;    ///< background (all powered chips)
};

struct CoreConfig {
  unsigned cores = 4;
  unsigned threads_per_core = 4;
  double clock_ghz = 2.0;
  /// DRAM command clock (DDR3-667 -> 333 MHz).
  double dram_clock_mhz = 333.0;
  /// CPU cycles per DRAM cycle, derived.
  [[nodiscard]] double cpu_per_dram_cycle() const {
    return clock_ghz * 1000.0 / dram_clock_mhz;
  }
  /// Peak power of the socket, scaled linearly by IPC as in the paper
  /// ("IPC-based linear scaling of ... a 45nm Intel Xeon").
  double max_socket_watts = 95.0;
  /// Floor of the linear IPC->power model (uncore + leakage).
  double idle_socket_watts = 30.0;
  /// IPC at which the socket reaches max power.
  double peak_ipc = 1.0;
};

struct SystemConfig {
  CoreConfig core;
  CacheConfig l1;
  CacheConfig l2;
  DramTiming timing;
  DramOrganization org;
  DramPower power;
  RowBufferPolicy row_policy = RowBufferPolicy::kOpenPage;
  std::size_t capacity_bytes = 0;
  std::size_t page_bytes = 4096;
  /// L2 hit latency (CPU cycles) charged on an L1 miss that hits L2.
  unsigned l2_latency_cycles = 8;
  /// Maximum posted (non-blocking) writebacks in flight per channel before
  /// reads start queueing behind them.
  unsigned writeback_queue_depth = 8;

  /// Paper Table 3 verbatim.
  static SystemConfig table3();

  /// Scaled preset for software simulation: same shape, caches shrunk by
  /// `factor` (e.g. 8 => 1MB L2) so proportionally smaller matrices exercise
  /// the same hierarchy levels.
  static SystemConfig scaled(unsigned factor = 8);
};

}  // namespace abftecc::memsim

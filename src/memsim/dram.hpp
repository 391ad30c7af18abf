// DDR3 main-memory timing and energy engine (DRAMSim2 stand-in).
//
// Resource model: one open row + next-ready time per bank, one data-bus
// free time per channel. A request reserves its bank(s) and channel bus(es)
// for the command + burst duration; chipkill reserves BOTH channels of a
// lock-step pair, which is the mechanism behind the paper's observation
// that chipkill "forces prefetch ... fewer opportunities for rank-level
// parallelism" (Section 2.2). Open-page policy keeps rows open so column
// hits skip the ACT/PRE pair, which is what limits the dynamic-energy
// savings of partial ECC when locality is high (Section 5.1).
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "ecc/scheme.hpp"
#include "memsim/address_map.hpp"
#include "memsim/config.hpp"

namespace abftecc::memsim {

/// Geometry of one access as driven by the active ECC scheme (and, for the
/// DGMS baseline, by its dynamic-granularity decision).
struct AccessShape {
  unsigned channels_used = 1;  ///< 2 for chipkill lock-step
  unsigned chips_activated = 16;
  unsigned burst_cycles = 4;   ///< DRAM cycles of data transfer per channel
};

/// Default shape for a full 64B line under each scheme.
constexpr AccessShape shape_for(ecc::Scheme s) {
  switch (s) {
    case ecc::Scheme::kNone: return {1, 16, 4};
    case ecc::Scheme::kSecded: return {1, 18, 4};
    // 144-bit lock-step channel pair "reading/writing two 64-byte cache
    // lines at a time" (Section 2.2, DDR3 BL=8): twice the chips, both
    // buses held for a full burst, 128B moved for one useful line -- the
    // forced prefetch whose "extra bits in all the active DIMMs are
    // wasted" when locality is insufficient; we charge the energy and the
    // occupancy and, like the paper, give no fill benefit.
    case ecc::Scheme::kChipkill: return {2, 36, 4};
  }
  return {};
}

/// Sub-ranked 16-byte SECDED access used by the DGMS baseline (Section 5.3).
constexpr AccessShape dgms_fine_shape() { return {1, 5, 1}; }

struct DramStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t activates = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;

  friend bool operator==(const DramStats&, const DramStats&) = default;

  [[nodiscard]] double row_hit_rate() const {
    const auto total = row_hits + row_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(row_hits) /
                            static_cast<double>(total);
  }
};

struct DramAccessResult {
  Cycles completion = 0;   ///< DRAM cycle when the data burst finishes
  Cycles start = 0;        ///< DRAM cycle when the command began
  Picojoules energy_pj = 0;
  bool row_hit = false;
};

class DramSystem {
 public:
  DramSystem(const SystemConfig& cfg, const AddressMap& map);

  /// Issue one line access at DRAM-cycle `now`. Posted requests (writebacks)
  /// consume resources but the caller does not stall on them.
  DramAccessResult issue(const DramAddress& da, bool is_write,
                         const AccessShape& shape, Cycles now);

  [[nodiscard]] const DramStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Background (standby) energy for `seconds` of wall-clock at this
  /// organization: every powered chip pays, whatever the ECC scheme.
  [[nodiscard]] Picojoules standby_energy_pj(double seconds) const;

 private:
  struct Bank {
    std::uint64_t open_row = 0;
    bool row_valid = false;
    Cycles ready = 0;
  };

  [[nodiscard]] std::size_t bank_index(unsigned channel, unsigned rank,
                                       unsigned bank) const;

  SystemConfig cfg_;
  unsigned ranks_per_channel_;
  std::vector<Bank> banks_;        ///< [channel][rank][bank]
  std::vector<Cycles> bus_free_;   ///< per channel
  DramStats stats_;
};

}  // namespace abftecc::memsim

// Record of what the memory system's front end (L1 and L2) did in one run,
// and the cursor that replays it (DESIGN.md section 6c).
//
// The caches never look at the ECC scheme, and the Os lays out the same
// physical frames whatever the strategy, so every strategy run of one kernel
// sees the same L1 and L2 behaviour; only the DRAM back end differs. One live
// run records its front end; a rerun under another back end (strategy, DGMS,
// row-buffer policy) replays the record instead of translating addresses and
// looking up the caches, and issues the recorded DRAM requests through the
// unchanged back end, as the paper's trace-driven stack fed McSim's LLC miss
// stream to DRAMSim2.
//
// Encoding: two byte streams of LEB128 varints, the L1 misses in access
// order and the straddle splits.
//   misses     (gap - 1) << 1 | has_dram, where gap is the distance in
//              memory accesses (SystemStats::mem_refs) from the previous
//              miss; then, if has_dram, the miss's DRAM requests, each
//              zigzag(line delta) << 3 | more << 2 | write << 1 | blocking,
//              the delta taken in lines against the previous request in the
//              same direction and `more` set on all but the last.
//   straddles  distance from the previous split to the first access of the
//              next reference that straddled an L1 line boundary.
// Kernels stream, so almost every gap, and most deltas, fit in one byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "memsim/cache.hpp"
#include "memsim/config.hpp"

namespace abftecc::memsim {

class FrontEndRecord {
 public:
  using Ranges = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

  /// Start an empty record for a system configured as `cfg`.
  void begin(const SystemConfig& cfg);

  // --- recording: MemorySystem's miss path and the tap's straddle split ---

  void l1_miss(std::uint64_t access);
  /// The reference whose first access is `access` also touched the next line.
  void straddle(std::uint64_t access);
  void dram(std::uint64_t line_addr, bool is_write, bool blocking);
  /// Write out the last miss.
  void seal();

  /// Straddle splits recorded: the accesses beyond one per reference.
  [[nodiscard]] std::uint64_t splits() const { return splits_; }
  /// True if `cfg` has the front end this record was made with.
  [[nodiscard]] bool matches(const SystemConfig& cfg) const;
  /// Bytes of the encoded streams and the layout.
  [[nodiscard]] std::size_t bytes() const {
    return misses_.size() + straddles_.size() +
           (regions.size() + abft_regions.size()) * sizeof(Ranges::value_type);
  }

  // --- what the live run ended with, filled when the recording finishes ---

  CacheStats l1, l2;
  std::uint64_t accesses = 0;  ///< SystemStats::mem_refs
  std::uint64_t refs_abft = 0, refs_other = 0;  ///< tap-level references
  /// The Os region layout: physical ranges of every allocation and of the
  /// ABFT-protected ones. A replay must end with the same layout.
  Ranges regions, abft_regions;

 private:
  friend class FrontEndCursor;

  void flush_miss();

  CacheConfig l1_config_, l2_config_;
  unsigned l2_latency_ = 0;
  unsigned line_shift_ = 0;  ///< log2 of the smaller line size
  /// Deques grow in fixed blocks: a growing record never holds two copies
  /// of itself, as a reallocating vector would.
  std::deque<std::uint8_t> misses_, straddles_;
  std::uint64_t last_miss_ = 0;  ///< access index + 1 of the previous miss
  std::uint64_t last_straddle_ = 0;
  std::uint64_t splits_ = 0;
  std::uint64_t last_line_[2] = {0, 0};  ///< previous read, write line
  /// The miss being recorded: written out once its DRAM requests are known.
  bool pending_ = false;
  std::uint64_t pending_gap_ = 0;
  std::uint64_t requests_[4] = {};
  unsigned nrequests_ = 0;
};

/// One DRAM request of a recorded L1 miss.
struct DramRequest {
  std::uint64_t line_addr = 0;
  bool is_write = false;
  bool blocking = false;
};

/// Decoding position in a FrontEndRecord. Each replaying MemorySystem has
/// its own; the record itself is read-only and may be shared across threads.
class FrontEndCursor {
 public:
  static constexpr std::uint64_t kEnd =
      std::numeric_limits<std::uint64_t>::max();

  explicit FrontEndCursor(const FrontEndRecord& rec);

  /// Access index of the current event; kEnd once the record is consumed.
  [[nodiscard]] std::uint64_t at() const { return at_; }
  /// The current event is a straddle split (else an L1 miss). At one access
  /// the miss comes first.
  [[nodiscard]] bool straddle() const { return at_ != miss_at_; }
  /// Next DRAM request of the current L1 miss, if any is left.
  bool next_request(DramRequest& out);
  /// Move past the current event.
  void advance();

  [[nodiscard]] bool done() const {
    return at_ == kEnd && !requests_ && miss_pos_ == rec_.misses_.end() &&
           straddle_pos_ == rec_.straddles_.end();
  }

 private:
  void next_miss();
  void next_straddle();

  const FrontEndRecord& rec_;
  std::deque<std::uint8_t>::const_iterator miss_pos_, straddle_pos_;
  std::uint64_t miss_at_ = 0, straddle_at_ = 0, at_ = 0;
  bool requests_ = false;  ///< the current miss has requests left
  std::uint64_t last_line_[2] = {0, 0};
};

}  // namespace abftecc::memsim

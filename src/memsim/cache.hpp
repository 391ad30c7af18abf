// Set-associative write-back, write-allocate cache with true-LRU
// replacement; used for both the private L1 and the shared L2.
#pragma once

#include <cstdint>
#include <vector>

#include "memsim/config.hpp"

namespace abftecc::memsim {

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;

  friend bool operator==(const CacheStats&, const CacheStats&) = default;

  [[nodiscard]] double miss_rate() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(accesses);
  }
};

/// Result of one cache lookup (fill already performed on miss).
struct CacheAccess {
  bool hit = false;
  bool evicted = false;
  bool evicted_dirty = false;
  std::uint64_t evicted_line_addr = 0;  ///< line-aligned byte address
};

class Cache {
 public:
  /// Line size and set count must both be powers of two.
  explicit Cache(const CacheConfig& cfg);

  /// Look up `addr`; on miss the line is allocated (victim reported).
  /// The hit scan is inline so MemorySystem::access folds both lookups
  /// into its own body; only a miss leaves it, through fill().
  CacheAccess access(std::uint64_t addr, bool is_write) {
    ++stats_.accesses;
    const std::size_t set = set_index(addr);
    const std::uint64_t tag = tag_of(addr);
    Line* base = &lines_[set * cfg_.ways];
    for (unsigned w = 0; w < cfg_.ways; ++w) {
      Line& line = base[w];
      if (line.valid && line.tag == tag) {
        line.lru = ++tick_;
        line.dirty = line.dirty || is_write;
        ++stats_.hits;
        return CacheAccess{.hit = true};
      }
    }
    return fill(base, set, tag, is_write);
  }

  /// Invalidate a line if present (used for inclusive-hierarchy back
  /// invalidations). Returns true if it was present and dirty.
  bool invalidate(std::uint64_t addr);

  [[nodiscard]] bool contains(std::uint64_t addr) const;
  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const CacheConfig& config() const { return cfg_; }
  void reset_stats() { stats_ = {}; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;
    bool dirty = false;
  };

  /// Miss path: pick the victim in `base`'s set, report it, allocate `tag`.
  CacheAccess fill(Line* base, std::size_t set, std::uint64_t tag,
                   bool is_write);

  [[nodiscard]] std::size_t set_index(std::uint64_t addr) const {
    return (addr >> line_shift_) & set_mask_;
  }
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t addr) const {
    return addr >> tag_shift_;
  }

  CacheConfig cfg_;
  std::size_t set_mask_;  ///< num_sets - 1
  unsigned line_shift_;   ///< log2(line_bytes)
  unsigned tag_shift_;    ///< log2(line_bytes * num_sets)
  std::vector<Line> lines_;  ///< num_sets * ways, set-major
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

}  // namespace abftecc::memsim

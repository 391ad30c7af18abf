#include "memsim/cache.hpp"

#include <bit>

#include "common/error.hpp"

namespace abftecc::memsim {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  ABFTECC_REQUIRE(cfg.ways > 0);
  ABFTECC_REQUIRE(std::has_single_bit(cfg.line_bytes));
  const std::size_t sets = cfg.num_sets();
  ABFTECC_REQUIRE(std::has_single_bit(sets));
  set_mask_ = sets - 1;
  line_shift_ = static_cast<unsigned>(std::countr_zero(cfg.line_bytes));
  tag_shift_ = line_shift_ + static_cast<unsigned>(std::countr_zero(sets));
  lines_.resize(sets * cfg.ways);
}

CacheAccess Cache::fill(Line* base, std::size_t set, std::uint64_t tag,
                        bool is_write) {
  Line* lru_line = base;
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    Line& line = base[w];
    if (!line.valid) {
      lru_line = &line;  // prefer an invalid slot outright
    } else if (lru_line->valid && line.lru < lru_line->lru) {
      lru_line = &line;
    }
  }

  ++stats_.misses;
  CacheAccess result;
  if (lru_line->valid) {
    ++stats_.evictions;
    result.evicted = true;
    result.evicted_dirty = lru_line->dirty;
    if (lru_line->dirty) ++stats_.dirty_evictions;
    result.evicted_line_addr =
        (lru_line->tag << tag_shift_) | (std::uint64_t{set} << line_shift_);
  }
  lru_line->valid = true;
  lru_line->tag = tag;
  lru_line->dirty = is_write;
  lru_line->lru = ++tick_;
  return result;
}

bool Cache::invalidate(std::uint64_t addr) {
  const std::size_t set = set_index(addr);
  const std::uint64_t tag = tag_of(addr);
  Line* base = &lines_[set * cfg_.ways];
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == tag) {
      line.valid = false;
      return line.dirty;
    }
  }
  return false;
}

bool Cache::contains(std::uint64_t addr) const {
  const std::size_t set = set_index(addr);
  const std::uint64_t tag = tag_of(addr);
  const Line* base = &lines_[set * cfg_.ways];
  for (unsigned w = 0; w < cfg_.ways; ++w)
    if (base[w].valid && base[w].tag == tag) return true;
  return false;
}

}  // namespace abftecc::memsim

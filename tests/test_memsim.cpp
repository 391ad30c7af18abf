// Tests for the memory-system simulator: cache behaviour, address-map
// bijectivity, DRAM timing/energy invariants, MC registers, and the
// front-end's stat/energy accounting.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ecc/scheme.hpp"
#include "memsim/address_map.hpp"
#include "memsim/cache.hpp"
#include "memsim/config.hpp"
#include "memsim/dram.hpp"
#include "memsim/memory_controller.hpp"
#include "memsim/system.hpp"
#include "obs/metrics.hpp"

namespace abftecc::memsim {
namespace {

CacheConfig small_cache() { return CacheConfig{1024, 2, 64, 1}; }  // 8 sets

TEST(Cache, ColdMissThenHit) {
  Cache c(small_cache());
  EXPECT_FALSE(c.access(0, false).hit);
  EXPECT_TRUE(c.access(0, false).hit);
  EXPECT_TRUE(c.access(32, false).hit);  // same line
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_EQ(c.stats().hits, 2u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  Cache c(small_cache());  // 2 ways, 8 sets; lines 0, 512, 1024 share set 0
  c.access(0, false);
  c.access(512, false);
  c.access(0, false);        // 0 now MRU
  auto r = c.access(1024, false);  // evicts 512
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_line_addr, 512u);
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(512));
}

TEST(Cache, DirtyEvictionReported) {
  Cache c(small_cache());
  c.access(0, true);  // dirty
  c.access(512, false);
  auto r = c.access(1024, false);  // evicts 0 (LRU)
  EXPECT_TRUE(r.evicted);
  EXPECT_TRUE(r.evicted_dirty);
  EXPECT_EQ(r.evicted_line_addr, 0u);
}

TEST(Cache, WriteHitMarksDirty) {
  Cache c(small_cache());
  c.access(64, false);
  c.access(64, true);
  EXPECT_TRUE(c.invalidate(64));  // returns dirtiness
}

TEST(Cache, InvalidateMissingLineReturnsFalse) {
  Cache c(small_cache());
  EXPECT_FALSE(c.invalidate(64));
}

TEST(Cache, MissRateComputed) {
  Cache c(small_cache());
  c.access(0, false);
  c.access(0, false);
  EXPECT_DOUBLE_EQ(c.stats().miss_rate(), 0.5);
}

// Reference model for the differential test below: a straightforward
// true-LRU cache that finds set and tag with runtime divisions and picks its
// victim in the same scan. Cache, which uses shifts and masks and a separate
// fill path, must agree with it on every access.
class DividingLruCache {
 public:
  explicit DividingLruCache(const CacheConfig& cfg)
      : cfg_(cfg), num_sets_(cfg.num_sets()), lines_(num_sets_ * cfg.ways) {}

  CacheAccess access(std::uint64_t addr, bool is_write) {
    ++stats_.accesses;
    const std::size_t set = (addr / cfg_.line_bytes) % num_sets_;
    const std::uint64_t tag = addr / cfg_.line_bytes / num_sets_;
    Line* base = &lines_[set * cfg_.ways];
    Line* lru_line = base;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
      Line& line = base[w];
      if (line.valid && line.tag == tag) {
        line.lru = ++tick_;
        line.dirty = line.dirty || is_write;
        ++stats_.hits;
        return CacheAccess{.hit = true};
      }
      if (!line.valid) {
        lru_line = &line;
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
          (lru_line->tag * num_sets_ + set) * cfg_.line_bytes;
    }
    *lru_line = Line{tag, ++tick_, true, is_write};
    return result;
  }

  bool invalidate(std::uint64_t addr) {
    Line* line = find(addr);
    if (line == nullptr) return false;
    line->valid = false;
    return line->dirty;
  }
  bool contains(std::uint64_t addr) { return find(addr) != nullptr; }
  const CacheStats& stats() const { return stats_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;
    bool dirty = false;
  };

  Line* find(std::uint64_t addr) {
    const std::size_t set = (addr / cfg_.line_bytes) % num_sets_;
    const std::uint64_t tag = addr / cfg_.line_bytes / num_sets_;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
      Line& line = lines_[set * cfg_.ways + w];
      if (line.valid && line.tag == tag) return &line;
    }
    return nullptr;
  }

  CacheConfig cfg_;
  std::size_t num_sets_;
  std::vector<Line> lines_;
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

struct NamedCacheConfig {
  const char* name;
  CacheConfig cfg;
};

void PrintTo(const NamedCacheConfig& c, std::ostream* os) { *os << c.name; }

class CacheDifferential : public ::testing::TestWithParam<NamedCacheConfig> {};

// 2^20 seeded reads and writes through Cache and the dividing reference in
// lockstep: recent-address reuse, sequential streams, uniform traffic over
// 4x the capacity and a few far-away regions with large tags, plus sampled
// contains() and invalidate() calls (which leave invalid ways mid-set).
TEST_P(CacheDifferential, MatchesDividingTrueLru) {
  const CacheConfig cfg = GetParam().cfg;
  Cache cache(cfg);
  DividingLruCache ref(cfg);
  Rng rng(0xcac4e5eedULL ^ cfg.size_bytes ^ cfg.line_bytes);
  const std::uint64_t span = 4 * cfg.size_bytes;
  const std::uint64_t far_bases[] = {rng() & ~(span - 1), rng() & ~(span - 1),
                                     ~std::uint64_t{0} & ~(span - 1)};
  std::vector<std::uint64_t> recent(64, 0);
  std::uint64_t addr = 0;
  constexpr std::size_t kAccesses = std::size_t{1} << 20;
  for (std::size_t i = 0; i < kAccesses; ++i) {
    const std::uint64_t pick = rng.below(10);
    if (pick < 4)
      addr = recent[rng.below(recent.size())] + rng.below(cfg.line_bytes);
    else if (pick < 8)
      addr = rng.below(span);
    else if (pick < 9)
      addr += 8;
    else
      addr = far_bases[rng.below(3)] + rng.below(cfg.size_bytes);
    recent[i % recent.size()] = addr;
    const bool is_write = rng.below(10) < 3;

    const CacheAccess got = cache.access(addr, is_write);
    const CacheAccess want = ref.access(addr, is_write);
    ASSERT_EQ(got.hit, want.hit) << "access " << i << " addr " << addr;
    ASSERT_EQ(got.evicted, want.evicted) << "access " << i;
    ASSERT_EQ(got.evicted_dirty, want.evicted_dirty) << "access " << i;
    ASSERT_EQ(got.evicted_line_addr, want.evicted_line_addr) << "access " << i;

    if (i % 97 == 0) {
      const std::uint64_t probe = recent[rng.below(recent.size())];
      ASSERT_EQ(cache.contains(probe), ref.contains(probe)) << "access " << i;
    }
    if (i % 1009 == 0) {
      const std::uint64_t victim = recent[rng.below(recent.size())];
      ASSERT_EQ(cache.invalidate(victim), ref.invalidate(victim))
          << "access " << i;
    }
  }
  const CacheStats& a = cache.stats();
  const CacheStats& b = ref.stats();
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.dirty_evictions, b.dirty_evictions);
  // The traffic must exercise every path being compared.
  EXPECT_GT(a.hits, 0u);
  EXPECT_GT(a.dirty_evictions, 0u);
  EXPECT_GT(a.evictions, a.dirty_evictions);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CacheDifferential,
    ::testing::Values(
        NamedCacheConfig{"small", small_cache()},
        NamedCacheConfig{"table3_l1", SystemConfig::table3().l1},
        NamedCacheConfig{"table3_l2", SystemConfig::table3().l2},
        NamedCacheConfig{"scaled8_l1", SystemConfig::scaled(8).l1},
        NamedCacheConfig{"scaled8_l2", SystemConfig::scaled(8).l2},
        NamedCacheConfig{"scaled32_l2", SystemConfig::scaled(32).l2},
        NamedCacheConfig{"two_way_128b_lines", CacheConfig{4096, 2, 128, 1}}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Cache, LineSizeMustBeAPowerOfTwo) {
  // 8 sets of 2 ways: only the 48-byte line breaks the contract.
  const CacheConfig cfg{48 * 8 * 2, 2, 48, 1};
  EXPECT_THROW(Cache{cfg}, ContractViolation);
}

class AddressMapRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AddressMapRoundTrip, ComposeInvertsDecompose) {
  DramOrganization org;
  AddressMap map(org);
  const std::uint64_t addr = GetParam() & ~63ull;
  EXPECT_EQ(map.compose(map.decompose(addr)), addr);
}

INSTANTIATE_TEST_SUITE_P(Addrs, AddressMapRoundTrip,
                         ::testing::Values(0ull, 64ull, 4096ull, 123456ull * 64,
                                           (1ull << 30) + 640,
                                           (1ull << 33) - 64));

TEST(AddressMap, ConsecutiveLinesRotateChannels) {
  DramOrganization org;
  AddressMap map(org);
  const auto a0 = map.decompose(0);
  const auto a1 = map.decompose(64);
  EXPECT_EQ(a1.channel, (a0.channel + 1) % org.channels);
}

TEST(AddressMap, SameBankStreamsStayInRow) {
  DramOrganization org;
  AddressMap map(org);
  // Lines on the same (channel, bank) are channel*banks lines apart.
  const std::uint64_t stride = 64ull * org.channels * org.banks_per_rank;
  const auto a = map.decompose(0);
  const auto b = map.decompose(stride);
  EXPECT_EQ(a.channel, b.channel);
  EXPECT_EQ(a.bank, b.bank);
  EXPECT_EQ(a.row, b.row);
  EXPECT_EQ(b.column, a.column + 1);
}

SystemConfig test_config() {
  SystemConfig c = SystemConfig::scaled(8);
  return c;
}

TEST(Dram, RowHitIsFasterThanMiss) {
  SystemConfig cfg = test_config();
  AddressMap map(cfg.org);
  DramSystem dram(cfg, map);
  const auto shape = shape_for(ecc::Scheme::kSecded);
  const auto da = map.decompose(0);
  const auto first = dram.issue(da, false, shape, 0);
  EXPECT_FALSE(first.row_hit);
  auto da2 = da;
  da2.column += 1;
  const auto second = dram.issue(da2, false, shape, first.completion);
  EXPECT_TRUE(second.row_hit);
  EXPECT_LT(second.completion - first.completion,
            first.completion - 0);  // hit latency < miss latency
}

TEST(Dram, RowMissCostsActivationEnergy) {
  SystemConfig cfg = test_config();
  AddressMap map(cfg.org);
  DramSystem dram(cfg, map);
  const auto shape = shape_for(ecc::Scheme::kSecded);
  const auto da = map.decompose(0);
  const auto miss = dram.issue(da, false, shape, 0);
  auto da2 = da;
  da2.column += 1;
  const auto hit = dram.issue(da2, false, shape, miss.completion);
  EXPECT_GT(miss.energy_pj, hit.energy_pj);
}

TEST(Dram, ChipkillCostsMoreEnergyPerMiss) {
  SystemConfig cfg = test_config();
  AddressMap map(cfg.org);
  DramSystem d1(cfg, map), d2(cfg, map);
  const auto da = map.decompose(0);
  const auto sd = d1.issue(da, false, shape_for(ecc::Scheme::kSecded), 0);
  const auto ck = d2.issue(da, false, shape_for(ecc::Scheme::kChipkill), 0);
  EXPECT_GT(ck.energy_pj, sd.energy_pj);
}

TEST(Dram, ChipkillOccupiesBothPairedChannels) {
  SystemConfig cfg = test_config();
  AddressMap map(cfg.org);
  DramSystem dram(cfg, map);
  const auto da0 = map.decompose(0);    // channel 0
  const auto da1 = map.decompose(64);   // channel 1
  // Chipkill access on channel 0 locks channel 1 too.
  const auto ck = dram.issue(da0, false, shape_for(ecc::Scheme::kChipkill), 0);
  const auto after =
      dram.issue(da1, false, shape_for(ecc::Scheme::kSecded), 0);
  EXPECT_GE(after.start, ck.completion);  // had to wait for the pair
}

TEST(Dram, IndependentChannelsOverlapWithoutChipkill) {
  SystemConfig cfg = test_config();
  AddressMap map(cfg.org);
  DramSystem dram(cfg, map);
  const auto da0 = map.decompose(0);
  const auto da1 = map.decompose(64);
  dram.issue(da0, false, shape_for(ecc::Scheme::kSecded), 0);
  const auto b = dram.issue(da1, false, shape_for(ecc::Scheme::kSecded), 0);
  EXPECT_EQ(b.start, 0u);  // different channel: no wait
}

TEST(Dram, ClosedPagePolicyNeverRowHits) {
  SystemConfig cfg = test_config();
  cfg.row_policy = RowBufferPolicy::kClosedPage;
  AddressMap map(cfg.org);
  DramSystem dram(cfg, map);
  const auto shape = shape_for(ecc::Scheme::kNone);
  auto da = map.decompose(0);
  const auto r1 = dram.issue(da, false, shape, 0);
  da.column += 1;
  const auto r2 = dram.issue(da, false, shape, r1.completion);
  EXPECT_FALSE(r2.row_hit);
  EXPECT_EQ(dram.stats().row_hits, 0u);
}

TEST(Dram, StandbyEnergyScalesWithTime) {
  SystemConfig cfg = test_config();
  AddressMap map(cfg.org);
  DramSystem dram(cfg, map);
  EXPECT_NEAR(dram.standby_energy_pj(2.0), 2.0 * dram.standby_energy_pj(1.0),
              1e-3);
  EXPECT_GT(dram.standby_energy_pj(1.0), 0.0);
}

// --- Memory controller -------------------------------------------------------

TEST(MemoryController, DefaultSchemeAppliesOutsideRanges) {
  MemoryController mc(ecc::Scheme::kChipkill);
  EXPECT_EQ(mc.scheme_for(0x1000), ecc::Scheme::kChipkill);
}

TEST(MemoryController, RangeLookupAndClear) {
  MemoryController mc(ecc::Scheme::kChipkill);
  ASSERT_TRUE(mc.set_range({0x10000, 0x20000, ecc::Scheme::kNone}));
  EXPECT_EQ(mc.scheme_for(0x10000), ecc::Scheme::kNone);
  EXPECT_EQ(mc.scheme_for(0x1FFFF), ecc::Scheme::kNone);
  EXPECT_EQ(mc.scheme_for(0x20000), ecc::Scheme::kChipkill);
  EXPECT_TRUE(mc.clear_range(0x10000));
  EXPECT_EQ(mc.scheme_for(0x10000), ecc::Scheme::kChipkill);
}

TEST(MemoryController, OnlyEightRanges) {
  MemoryController mc;
  for (int i = 0; i < 8; ++i)
    EXPECT_TRUE(mc.set_range({static_cast<std::uint64_t>(i) * 0x1000,
                              static_cast<std::uint64_t>(i) * 0x1000 + 0x800,
                              ecc::Scheme::kSecded}));
  EXPECT_FALSE(mc.set_range({0x100000, 0x101000, ecc::Scheme::kSecded}));
  EXPECT_EQ(mc.ranges_in_use(), 8u);
  // Freeing one slot makes room again.
  EXPECT_TRUE(mc.clear_range(0));
  EXPECT_TRUE(mc.set_range({0x100000, 0x101000, ecc::Scheme::kSecded}));
}

TEST(MemoryController, ReassignChangesScheme) {
  MemoryController mc;
  ASSERT_TRUE(mc.set_range({0, 0x1000, ecc::Scheme::kNone}));
  ASSERT_TRUE(mc.reassign_range(0, ecc::Scheme::kSecded));
  EXPECT_EQ(mc.scheme_for(0x10), ecc::Scheme::kSecded);
  EXPECT_FALSE(mc.reassign_range(0x9999, ecc::Scheme::kSecded));
}

TEST(MemoryController, ErrorRegistersRingAndInterrupt) {
  MemoryController mc;
  int interrupts = 0;
  mc.set_interrupt_handler([&](const ErrorRecord& r) {
    ++interrupts;
    EXPECT_TRUE(r.valid);
  });
  FaultSite site;
  site.chip = 3;
  for (int i = 0; i < 6; ++i)
    mc.report_uncorrectable(site, 0x40 * i, i, ecc::Scheme::kNone);
  EXPECT_EQ(interrupts, 6);
  EXPECT_EQ(mc.uncorrectable_count(), 6u);
  EXPECT_EQ(mc.dropped_error_records(), 0u);
  // 7th wraps: oldest record dropped.
  mc.report_uncorrectable(site, 0x1000, 7, ecc::Scheme::kNone);
  EXPECT_EQ(mc.dropped_error_records(), 1u);
  mc.clear_error_registers();
  for (const auto& e : mc.error_registers()) EXPECT_FALSE(e.valid);
}

TEST(MemoryController, CorrectionEnergyAccounted) {
  MemoryController mc;
  mc.note_corrected(ecc::Scheme::kChipkill);
  mc.note_corrected(ecc::Scheme::kSecded);
  EXPECT_EQ(mc.corrected_count(), 2u);
  EXPECT_GT(mc.correction_energy_pj(), 0.0);
}

// --- MemorySystem front end ----------------------------------------------------

TEST(MemorySystem, HitsDoNotTouchDram) {
  MemorySystem sys(SystemConfig::scaled(8), ecc::Scheme::kSecded);
  sys.access(0, AccessKind::kRead);
  EXPECT_EQ(sys.dram_stats().reads, 1u);
  // 10 accesses spanning bytes 0..79 touch two lines in total.
  for (int i = 0; i < 10; ++i) sys.access(8 * i, AccessKind::kRead);
  EXPECT_EQ(sys.dram_stats().reads, 2u);
  EXPECT_EQ(sys.l1_stats().hits, 9u);
}

TEST(MemorySystem, StallsAccumulateCycles) {
  MemorySystem sys(SystemConfig::scaled(8), ecc::Scheme::kSecded);
  sys.access(0, AccessKind::kRead);
  const auto cycles = sys.stats().cpu_cycles;
  EXPECT_GT(cycles, 2u);  // issue + L2 + DRAM stall
  sys.access(0, AccessKind::kRead);
  EXPECT_EQ(sys.stats().cpu_cycles, cycles + 2);  // L1 hit: base cost only
}

TEST(MemorySystem, ChipkillSlowerAndHungrierOnScatteredWrites) {
  // Random write-heavy traffic: no locality for the forced prefetch to
  // exploit, and posted writebacks collide with demand fills on the
  // lock-step channel pair.
  const std::size_t n = 200000;
  auto run = [&](ecc::Scheme s) {
    MemorySystem sys(SystemConfig::scaled(8), s);
    std::uint64_t lcg = 12345;
    for (std::size_t i = 0; i < n; ++i) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      sys.access((lcg >> 16) % (64ull << 20), AccessKind::kWrite);
    }
    return sys;
  };
  auto none = run(ecc::Scheme::kNone);
  auto ck = run(ecc::Scheme::kChipkill);
  EXPECT_GT(ck.stats().cpu_cycles, none.stats().cpu_cycles);
  EXPECT_GT(ck.memory_dynamic_energy_pj(), none.memory_dynamic_energy_pj());
  EXPECT_LT(ck.stats().ipc(), none.stats().ipc());
}

TEST(MemorySystem, ChipkillForcedPrefetchGivesNoFillBenefit) {
  // The paper models the lock-step pair's second line as wasted bits:
  // demand miss counts must match the no-ECC run exactly.
  const std::size_t n = 100000;
  auto run = [&](ecc::Scheme s) {
    MemorySystem sys(SystemConfig::scaled(8), s);
    for (std::size_t i = 0; i < n; ++i)
      sys.access(i * 64 % (64ull << 20), AccessKind::kRead);
    return sys.stats().demand_misses;
  };
  EXPECT_EQ(run(ecc::Scheme::kChipkill), run(ecc::Scheme::kNone));
}

TEST(MemorySystem, ClassifierSplitsDemandMisses) {
  MemorySystem sys(SystemConfig::scaled(8), ecc::Scheme::kSecded);
  sys.hooks().region_classifier = [](std::uint64_t a) { return a < 1024; };
  sys.access(0, AccessKind::kRead);     // abft
  sys.access(1 << 20, AccessKind::kRead);  // other
  EXPECT_EQ(sys.stats().demand_misses_abft, 1u);
  EXPECT_EQ(sys.stats().demand_misses_other, 1u);
  EXPECT_GT(sys.stats().dram_dynamic_abft_pj, 0.0);
  EXPECT_GT(sys.stats().dram_dynamic_other_pj, 0.0);
}

TEST(MemorySystem, WritebacksArePosted) {
  // Fill a set with dirty lines, then evict: writebacks counted but the
  // demand read count matches the misses.
  MemorySystem sys(SystemConfig::scaled(8), ecc::Scheme::kSecded);
  const auto l1_bytes = sys.config().l1.size_bytes;
  for (std::uint64_t a = 0; a < 4 * l1_bytes; a += 64)
    sys.access(a, AccessKind::kWrite);
  // Now force L1 evictions to flow: writebacks land in L2 (still no DRAM
  // writes until L2 evicts). Stream far beyond L2 to push DRAM writebacks.
  const auto l2_bytes = sys.config().l2.size_bytes;
  for (std::uint64_t a = 0; a < 3 * l2_bytes; a += 64)
    sys.access(a, AccessKind::kWrite);
  EXPECT_GT(sys.stats().writebacks, 0u);
}

TEST(MemorySystem, FillHookSeesDemandFills) {
  MemorySystem sys(SystemConfig::scaled(8), ecc::Scheme::kSecded);
  std::uint64_t fills = 0;
  sys.hooks().fill_hook = [&](std::uint64_t, ecc::Scheme s, bool is_write) {
    if (!is_write) ++fills;
    EXPECT_EQ(s, ecc::Scheme::kSecded);
  };
  sys.access(0, AccessKind::kRead);
  sys.access(4096, AccessKind::kRead);
  EXPECT_EQ(fills, 2u);
}

TEST(MemorySystem, HooksAtConstruction) {
  // The whole hook set can be supplied up front, before the first access.
  memsim::Hooks hooks;
  std::uint64_t abft_fills = 0;
  hooks.region_classifier = [](std::uint64_t a) { return a < 1024; };
  hooks.fill_hook = [&](std::uint64_t a, ecc::Scheme, bool is_write) {
    if (!is_write && a < 1024) ++abft_fills;
  };
  MemorySystem sys(SystemConfig::scaled(8), ecc::Scheme::kSecded,
                   std::move(hooks));
  sys.access(0, AccessKind::kRead);
  sys.access(1 << 20, AccessKind::kRead);
  EXPECT_EQ(abft_fills, 1u);
  EXPECT_EQ(sys.stats().demand_misses_abft, 1u);
  EXPECT_EQ(sys.stats().demand_misses_other, 1u);
}

TEST(MemorySystem, HooksEditableAfterConstruction) {
  // hooks() is the only post-construction wiring path: the deprecated
  // set_* forwarders are gone, and -Werror=deprecated-declarations keeps
  // any resurrected deprecated API from compiling at all.
  MemorySystem sys(SystemConfig::scaled(8), ecc::Scheme::kSecded);
  std::uint64_t fills = 0;
  sys.hooks().region_classifier = [](std::uint64_t a) { return a < 1024; };
  sys.hooks().fill_hook = [&](std::uint64_t, ecc::Scheme, bool) { ++fills; };
  EXPECT_TRUE(static_cast<bool>(sys.hooks().region_classifier));
  EXPECT_TRUE(static_cast<bool>(sys.hooks().fill_hook));
  sys.access(0, AccessKind::kRead);
  EXPECT_EQ(fills, 1u);
  EXPECT_EQ(sys.stats().demand_misses_abft, 1u);
}

TEST(MemorySystem, ProcessorEnergyScalesWithTimeAndIpc) {
  MemorySystem sys(SystemConfig::scaled(8), ecc::Scheme::kNone);
  sys.execute(1000000);
  const auto e1 = sys.processor_energy_pj();
  sys.execute(1000000);
  EXPECT_NEAR(sys.processor_energy_pj(), 2 * e1, e1 * 0.01);
}

TEST(MemorySystem, SchemeForConsultsEccRegisters) {
  MemorySystem sys(SystemConfig::scaled(8), ecc::Scheme::kChipkill);
  ASSERT_TRUE(sys.controller().set_range({0, 4096, ecc::Scheme::kNone}));
  std::vector<ecc::Scheme> seen;
  sys.hooks().fill_hook = [&](std::uint64_t, ecc::Scheme s, bool) {
    seen.push_back(s);
  };
  sys.access(64, AccessKind::kRead);     // in range: no ECC
  sys.access(1 << 20, AccessKind::kRead);  // outside: chipkill
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], ecc::Scheme::kNone);
  EXPECT_EQ(seen[1], ecc::Scheme::kChipkill);
}

// Regression: reset_stats must clear every layer's statistics (L1, L2,
// DRAM, the front-end counters) AND the obs metrics registry, or per-run
// reports double-count the warm-up phase.
TEST(System, ResetStatsClearsAllLayersAndMetricsRegistry) {
  MemorySystem sys(SystemConfig::scaled(8), ecc::Scheme::kSecded);
  for (std::uint64_t a = 0; a < 64 * 1024; a += 64)
    sys.access(a, AccessKind::kRead);
  ASSERT_GT(sys.stats().mem_refs, 0u);
  ASSERT_GT(sys.stats().demand_misses, 0u);
  ASSERT_GT(sys.l1_stats().accesses, 0u);
  ASSERT_GT(sys.l2_stats().accesses, 0u);
  ASSERT_GT(sys.dram_stats().reads, 0u);
  auto& reg = obs::default_registry();
  ASSERT_GT(reg.counter("memsim.dram_access.secded").value(), 0u);

  sys.reset_stats();

  EXPECT_EQ(sys.stats().mem_refs, 0u);
  EXPECT_EQ(sys.stats().cpu_cycles, 0u);
  EXPECT_EQ(sys.stats().demand_misses, 0u);
  EXPECT_EQ(sys.stats().dram_dynamic_pj, 0.0);
  EXPECT_EQ(sys.l1_stats().accesses, 0u);
  EXPECT_EQ(sys.l1_stats().misses, 0u);
  EXPECT_EQ(sys.l2_stats().accesses, 0u);
  EXPECT_EQ(sys.l2_stats().misses, 0u);
  EXPECT_EQ(sys.dram_stats().reads, 0u);
  EXPECT_EQ(sys.dram_stats().activates, 0u);
  EXPECT_EQ(reg.counter("memsim.dram_access.secded").value(), 0u);
}

}  // namespace
}  // namespace abftecc::memsim

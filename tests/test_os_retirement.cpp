// Page retirement + data migration (Section 3.1) and the adaptive ECC
// policy built on runtime ECC transition.
#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "os/os.hpp"
#include "sim/adaptive.hpp"

namespace abftecc {
namespace {

struct Rig {
  memsim::MemorySystem sys;
  os::Os os;
  Rig() : sys(memsim::SystemConfig::scaled(8), ecc::Scheme::kChipkill),
          os(sys) {}
};

TEST(Retirement, RetiredFrameIsNeverReallocated) {
  os::PageAllocator pa(8 * 4096, 4096);
  const auto a = pa.allocate_contiguous(8, ecc::Scheme::kNone);
  ASSERT_TRUE(a.has_value());
  pa.free_range(*a, 8);
  pa.retire_frame(*a + 3 * 4096);  // frame 3 out of service
  EXPECT_EQ(pa.frames_retired(), 1u);
  // An 8-frame run no longer fits; the two fragments do.
  EXPECT_FALSE(pa.allocate_contiguous(8, ecc::Scheme::kNone).has_value());
  EXPECT_TRUE(pa.allocate_contiguous(4, ecc::Scheme::kNone).has_value());
  EXPECT_TRUE(pa.allocate_contiguous(3, ecc::Scheme::kNone).has_value());
}

TEST(Retirement, RetireFrameIdempotentAndFreesInUse) {
  os::PageAllocator pa(4 * 4096, 4096);
  const auto a = pa.allocate_contiguous(2, ecc::Scheme::kNone);
  ASSERT_TRUE(a.has_value());
  pa.retire_frame(*a);
  pa.retire_frame(*a);
  EXPECT_EQ(pa.frames_retired(), 1u);
  EXPECT_EQ(pa.frames_in_use(), 1u);
  // Each frame's in-use, retired and scheme state decodes independently.
  const os::PageFrame retired = pa.frame_at(*a);
  EXPECT_TRUE(retired.retired);
  EXPECT_FALSE(retired.in_use);
  EXPECT_EQ(retired.ecc_type, ecc::Scheme::kNone);
  const os::PageFrame live = pa.frame_at(*a + 4096);
  EXPECT_TRUE(live.in_use);
  EXPECT_FALSE(live.retired);
  const os::PageFrame untouched = pa.frame_at(*a + 2 * 4096);
  EXPECT_FALSE(untouched.in_use || untouched.retired);
  EXPECT_EQ(untouched.ecc_type, os::PageFrame{}.ecc_type);
}

TEST(Retirement, MigrationMovesPhysicalMappingKeepsVirtual) {
  Rig rig;
  auto* p = static_cast<std::uint8_t*>(
      rig.os.malloc_ecc(3 * 4096, ecc::Scheme::kSecded, "m", true));
  ASSERT_NE(p, nullptr);
  p[100] = 0xAB;
  const auto old_phys = *rig.os.virt_to_phys(p);
  ASSERT_TRUE(rig.os.retire_and_migrate(p + 100));
  const auto new_phys = *rig.os.virt_to_phys(p);
  EXPECT_NE(new_phys, old_phys);
  EXPECT_EQ(p[100], 0xAB);  // data survived
  EXPECT_EQ(rig.os.migrations(), 1u);
  EXPECT_EQ(rig.os.pages().frames_retired(), 1u);
  // The MC ECC range follows the region.
  EXPECT_EQ(rig.sys.controller().scheme_for(new_phys), ecc::Scheme::kSecded);
  EXPECT_EQ(rig.sys.controller().scheme_for(old_phys), ecc::Scheme::kChipkill);
  EXPECT_EQ(rig.sys.controller().ranges_in_use(), 1u);
}

TEST(Retirement, MigrationChargesCopyTraffic) {
  Rig rig;
  auto* p = static_cast<std::uint8_t*>(
      rig.os.malloc_ecc(4096, ecc::Scheme::kNone, "m", true));
  const auto refs_before = rig.sys.stats().mem_refs;
  ASSERT_TRUE(rig.os.retire_and_migrate(p));
  // 4096/64 lines read + written.
  EXPECT_EQ(rig.sys.stats().mem_refs, refs_before + 2 * 64);
}

TEST(Retirement, MigrationOfUnknownPointerFails) {
  Rig rig;
  int local = 0;
  EXPECT_FALSE(rig.os.retire_and_migrate(&local));
}

TEST(Retirement, AutoRetireAfterRepeatedHardFaults) {
  Rig rig;
  rig.os.set_auto_retire_threshold(3);
  fault::Injector inj(rig.sys, rig.os);
  auto* p = static_cast<std::uint8_t*>(
      rig.os.malloc_ecc(4096, ecc::Scheme::kSecded, "m", true));
  for (int i = 0; i < 4096; ++i) p[i] = static_cast<std::uint8_t>(i);
  // A stuck chip produces uncorrectable errors on every re-read of the
  // frame; after 3 events the OS migrates the allocation away.
  for (int event = 0; event < 3; ++event) {
    const auto phys = *rig.os.virt_to_phys(p + 64 * event);
    inj.inject_bit(phys, 0);
    inj.inject_bit(phys + 1, 1);  // double-bit: uncorrectable under SECDED
    rig.sys.access(phys, memsim::AccessKind::kRead);
  }
  EXPECT_EQ(rig.os.migrations(), 1u);
  EXPECT_EQ(rig.os.pages().frames_retired(), 1u);
}

// --- Adaptive policy ----------------------------------------------------------

TEST(AdaptivePolicy, EscalatesUnderErrorPressure) {
  Rig rig;
  void* p = rig.os.malloc_ecc(4096, ecc::Scheme::kNone, "m", true);
  sim::AdaptivePolicy::Options opt;
  opt.t_c_seconds = 1.0;
  opt.tau_relaxed = 0.0;
  opt.tau_strong = 0.05;  // perf threshold = 20 s
  opt.delta_e_joules = 1e9;  // energy threshold negligible
  sim::AdaptivePolicy policy(rig.os, p, ecc::Scheme::kNone, opt);
  ASSERT_EQ(policy.current(), ecc::Scheme::kNone);
  // 10 errors in 10 seconds: observed MTTF ~1 s << 20 s threshold.
  EXPECT_EQ(policy.on_epoch(10.0, 10), ecc::Scheme::kSecded);
  // Pressure persists at the new tier: escalate to chipkill (= ASE).
  EXPECT_EQ(policy.on_epoch(10.0, 10), ecc::Scheme::kChipkill);
  EXPECT_EQ(policy.transitions(), 2u);
  const auto phys = *rig.os.virt_to_phys(p);
  EXPECT_EQ(rig.sys.controller().scheme_for(phys), ecc::Scheme::kChipkill);
}

TEST(AdaptivePolicy, DeescalatesAfterSustainedCalm) {
  Rig rig;
  void* p = rig.os.malloc_ecc(4096, ecc::Scheme::kSecded, "m", true);
  sim::AdaptivePolicy::Options opt;
  opt.t_c_seconds = 1.0;
  opt.tau_relaxed = 0.0;
  opt.tau_strong = 0.05;
  opt.delta_e_joules = 1e9;
  opt.calm_epochs_to_relax = 3;
  sim::AdaptivePolicy policy(rig.os, p, ecc::Scheme::kSecded, opt);
  // Three calm epochs well above threshold x headroom.
  EXPECT_EQ(policy.on_epoch(1000.0, 0), ecc::Scheme::kSecded);
  EXPECT_EQ(policy.on_epoch(1000.0, 0), ecc::Scheme::kSecded);
  EXPECT_EQ(policy.on_epoch(1000.0, 0), ecc::Scheme::kNone);
  const auto phys = *rig.os.virt_to_phys(p);
  EXPECT_EQ(rig.sys.controller().scheme_for(phys), ecc::Scheme::kNone);
}

TEST(AdaptivePolicy, HysteresisPreventsFlapping) {
  Rig rig;
  void* p = rig.os.malloc_ecc(4096, ecc::Scheme::kSecded, "m", true);
  sim::AdaptivePolicy::Options opt;
  opt.t_c_seconds = 1.0;
  opt.tau_relaxed = 0.0;
  opt.tau_strong = 0.05;  // threshold 20 s
  opt.delta_e_joules = 1e9;
  opt.headroom = 4.0;
  sim::AdaptivePolicy policy(rig.os, p, ecc::Scheme::kSecded, opt);
  // Observed MTTF ~50 s: above threshold but inside the headroom band --
  // the policy must hold, not relax.
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(policy.on_epoch(50.0, 1), ecc::Scheme::kSecded);
  EXPECT_EQ(policy.transitions(), 0u);
}

TEST(AdaptivePolicy, CeilingAndFloorOfLadder) {
  Rig rig;
  void* p = rig.os.malloc_ecc(4096, ecc::Scheme::kChipkill, "m", true);
  sim::AdaptivePolicy::Options opt;
  opt.delta_e_joules = 1e9;
  sim::AdaptivePolicy policy(rig.os, p, ecc::Scheme::kChipkill, opt);
  // Already at the top: more errors change nothing.
  EXPECT_EQ(policy.on_epoch(0.1, 100), ecc::Scheme::kChipkill);
  EXPECT_EQ(policy.transitions(), 0u);
}

}  // namespace
}  // namespace abftecc

// Tests for the sim layer: MemoryTap translation (regions, line straddles,
// the region-only contract), front-end record and replay with its contract,
// strategy specs, and the DGMS spatial predictor.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "memsim/system.hpp"
#include "obs/metrics.hpp"
#include "os/os.hpp"
#include "sim/dgms.hpp"
#include "sim/platform.hpp"
#include "sim/strategy.hpp"
#include "sim/tap.hpp"

namespace abftecc::sim {
namespace {

struct Rig {
  memsim::MemorySystem sys;
  os::Os os;
  TapContext ctx;
  explicit Rig(
      const memsim::SystemConfig& cfg = memsim::SystemConfig::scaled(8),
      ecc::Scheme scheme = ecc::Scheme::kChipkill)
      : sys(cfg, scheme), os(sys), ctx(os, sys) {}
};

TEST(MemoryTapTest, RegisteredRegionTranslatesToItsFrames) {
  Rig rig;
  auto* p = static_cast<double*>(
      rig.os.malloc_ecc(4096, ecc::Scheme::kNone, "m", true));
  MemoryTap tap(rig.ctx);
  tap.read(p);
  // The access must land on the region's physical page and be classified
  // as ABFT (fill hook sees the relaxed scheme).
  EXPECT_EQ(rig.ctx.refs_abft(), 1u);
  EXPECT_EQ(rig.ctx.refs_other(), 0u);
  EXPECT_EQ(rig.sys.stats().mem_refs, 1u);
}

TEST(MemoryTapTest, UnregisteredReferenceViolatesTheContract) {
  // Simulated addresses come only from Os regions; host memory the Os
  // never mapped has no simulated address and must not reach memsim.
  Rig rig;
  std::vector<double> local(8);
  MemoryTap tap(rig.ctx);
  EXPECT_THROW(tap.read(&local[0]), ContractViolation);
  EXPECT_EQ(rig.sys.stats().mem_refs, 0u);
}

TEST(MemoryTapTest, StraddlingReferenceTouchesBothLines) {
  Rig rig;
  auto* p = static_cast<std::uint8_t*>(
      rig.os.malloc_ecc(4096, ecc::Scheme::kNone, "m", true));
  MemoryTap tap(rig.ctx);
  tap.read(p + 60, 8);  // crosses the 64B boundary
  EXPECT_EQ(rig.sys.stats().mem_refs, 2u);
}

// The straddle split follows the L1 line size, not a fixed 64 bytes.
TEST(MemoryTapTest, StraddleSplitUsesTheL1LineSize) {
  memsim::SystemConfig cfg = memsim::SystemConfig::scaled(8);
  cfg.l1.line_bytes = 128;
  cfg.l2.line_bytes = 128;
  Rig rig(cfg);
  auto* p = static_cast<std::uint8_t*>(
      rig.os.malloc_ecc(4096, ecc::Scheme::kNone, "m", true));
  MemoryTap tap(rig.ctx);
  tap.read(p + 60, 8);  // inside one 128B line
  EXPECT_EQ(rig.sys.stats().mem_refs, 1u);
  tap.read(p + 124, 8);  // crosses the 128B boundary
  EXPECT_EQ(rig.sys.stats().mem_refs, 3u);
}

// A region larger than the L2 under `scheme`, written twice with a
// straddling reference at every 16th line boundary: L1 and L2 misses,
// posted writebacks and demand fills, and split references.
void drive_straddles(Rig& rig, ecc::Scheme scheme) {
  constexpr std::size_t kBytes = 1 << 20;
  auto* p = static_cast<std::uint8_t*>(
      rig.os.malloc_ecc(kBytes, scheme, "m", true));
  ASSERT_NE(p, nullptr);
  MemoryTap tap(rig.ctx);
  const std::size_t line = rig.sys.config().l1.line_bytes;
  for (int pass = 0; pass < 2; ++pass)
    for (std::size_t off = 0; off + 8 <= kBytes; off += 8) {
      if (off % (16 * line) == line - 8)
        tap.update(p + off + 4, 8);  // crosses into the next line
      else
        tap.update(p + off, 8);
    }
}

TEST(FrontEndReplay, StraddlingReferenceReplaysExactly) {
  memsim::SystemConfig cfg = memsim::SystemConfig::scaled(32);
  cfg.l1.line_bytes = 128;
  cfg.l2.line_bytes = 128;
  // Record under one back end, replay under another, and compare with a
  // live run under the second.
  memsim::FrontEndRecord rec;
  Rig recording(cfg, ecc::Scheme::kChipkill);
  recording.ctx.record(rec);
  drive_straddles(recording, ecc::Scheme::kSecded);
  recording.ctx.finish();
  EXPECT_GT(rec.splits(), 0u);

  Rig live(cfg, ecc::Scheme::kNone);
  drive_straddles(live, ecc::Scheme::kNone);
  Rig replayed(cfg, ecc::Scheme::kNone);
  replayed.ctx.replay(rec);
  drive_straddles(replayed, ecc::Scheme::kNone);
  replayed.ctx.finish();

  EXPECT_GT(live.sys.stats().writebacks, 0u);
  EXPECT_EQ(live.sys.stats().mem_refs,
            live.ctx.refs_abft() + live.ctx.refs_other() + rec.splits());
  EXPECT_TRUE(replayed.sys.stats() == live.sys.stats());
  EXPECT_TRUE(replayed.sys.dram_stats() == live.sys.dram_stats());
  EXPECT_TRUE(rec.l1 == live.sys.l1_stats());
  EXPECT_TRUE(rec.l2 == live.sys.l2_stats());
  EXPECT_EQ(replayed.ctx.refs_abft(), live.ctx.refs_abft());
  EXPECT_EQ(replayed.ctx.refs_other(), live.ctx.refs_other());
  EXPECT_NE(replayed.sys.stats().dram_dynamic_pj,
            recording.sys.stats().dram_dynamic_pj);  // the back ends differ
}

TEST(MemoryTapTest, CopiedHandlesShareState) {
  Rig rig;
  auto* p = static_cast<double*>(rig.os.malloc_plain(4096, "m"));
  MemoryTap tap(rig.ctx);
  MemoryTap copy = tap;
  tap.read(&p[0]);
  copy.read(&p[1]);
  EXPECT_EQ(rig.ctx.refs_other(), 2u);
}

TEST(StrategySpec, MatchesPaperDefinitions) {
  EXPECT_EQ(spec(Strategy::kNoEcc).default_scheme, ecc::Scheme::kNone);
  EXPECT_EQ(spec(Strategy::kWholeChipkill).abft_scheme,
            ecc::Scheme::kChipkill);
  EXPECT_EQ(spec(Strategy::kPartialChipkillNoEcc).default_scheme,
            ecc::Scheme::kChipkill);
  EXPECT_EQ(spec(Strategy::kPartialChipkillNoEcc).abft_scheme,
            ecc::Scheme::kNone);
  EXPECT_EQ(spec(Strategy::kPartialChipkillSecded).abft_scheme,
            ecc::Scheme::kSecded);
  EXPECT_EQ(spec(Strategy::kPartialSecdedNoEcc).default_scheme,
            ecc::Scheme::kSecded);
  for (const auto s : kAllStrategies)
    EXPECT_FALSE(spec(s).label.empty());
}

TEST(Dgms, SequentialStreamTrainsCoarse) {
  DgmsController dgms;
  std::uint64_t coarse_at_end = 0;
  for (std::uint64_t line = 0; line < 64; ++line) {
    const auto shape = dgms.shape(line * 64, ecc::Scheme::kChipkill);
    ASSERT_TRUE(shape.has_value());
    if (line == 63) coarse_at_end = shape->channels_used;
  }
  EXPECT_EQ(coarse_at_end, 2u);  // chipkill lock-step
  EXPECT_GT(dgms.coarse_accesses(), dgms.fine_accesses());
}

TEST(Dgms, ScatteredAccessesStayFine) {
  DgmsController dgms;
  Rng rng(5);
  unsigned fine = 0;
  for (int i = 0; i < 200; ++i) {
    // Random lines within one page: adjacency is rare.
    const std::uint64_t line = rng.below(64);
    const auto shape = dgms.shape(line * 64, ecc::Scheme::kChipkill);
    if (shape->channels_used == 1) ++fine;
  }
  EXPECT_GT(fine, 100u);
}

TEST(Dgms, PerPageIndependence) {
  DgmsController dgms;
  // Train page 0 coarse.
  for (std::uint64_t line = 0; line < 32; ++line)
    dgms.shape(line * 64, ecc::Scheme::kChipkill);
  // A fresh page starts fine-grained.
  const auto shape = dgms.shape(1 << 20, ecc::Scheme::kChipkill);
  EXPECT_EQ(shape->channels_used, 1u);
  EXPECT_EQ(shape->chips_activated, 5u);
}

// ------------------------------------------------------------- session --

TEST(Session, BuilderWiresTheWholeNode) {
  Session s = Session::Builder()
                  .strategy(Strategy::kPartialChipkillSecded)
                  .seed(9)
                  .build();
  EXPECT_EQ(s.options().strategy, Strategy::kPartialChipkillSecded);
  EXPECT_EQ(s.options().seed, 9u);
  EXPECT_EQ(s.abft_scheme(), ecc::Scheme::kSecded);

  // Allocation flows through the OS and is byte-accounted.
  MatrixView m = s.abft_matrix(16, 16, "m");
  EXPECT_NE(m.data(), nullptr);
  EXPECT_GE(s.abft_bytes(), 16u * 16u * sizeof(double));
  EXPECT_GE(s.total_bytes(), s.abft_bytes());
  EXPECT_TRUE(s.os().virt_to_phys(m.data()).has_value());

  // The injector is wired into the memory system's fill path.
  s.injector().inject_bit(*s.os().virt_to_phys(m.data()), 0);
  s.injector().flush_pending();
  EXPECT_EQ(s.injector().stats().corrected_by_ecc, 1u);
}

TEST(Session, RunProducesMetricsAndResult) {
  PlatformOptions opt;
  opt.strategy = Strategy::kPartialChipkillSecded;
  opt.dgemm_dim = 32;
  Session s = Session::Builder(opt).build();
  const RunMetrics m = s.run(Kernel::kDgemm);
  EXPECT_EQ(m.kernel, Kernel::kDgemm);
  EXPECT_EQ(m.status, abft::FtStatus::kOk);
  EXPECT_GT(m.seconds, 0.0);
  EXPECT_GT(m.refs_abft, 0u);
  EXPECT_EQ(s.last_result().size(), 32u * 32u);
}

TEST(Session, RunKernelWrapperMatchesExplicitSession) {
  PlatformOptions opt;
  opt.strategy = Strategy::kWholeSecded;
  opt.dgemm_dim = 32;
  const RunMetrics a = run_kernel(Kernel::kDgemm, opt);
  const RunMetrics b = Session::Builder(opt).build().run(Kernel::kDgemm);
  EXPECT_EQ(a.sys.instructions, b.sys.instructions);
  EXPECT_EQ(a.refs_abft, b.refs_abft);
  EXPECT_EQ(a.refs_other, b.refs_other);
  EXPECT_EQ(a.ft.verifications, b.ft.verifications);
}

TEST(Session, PrivateObservabilityKeepsThreadDefaultsClean) {
  obs::Registry& outer = obs::default_registry();
  const auto before = outer.counter("memsim.dram_access.secded").value();
  {
    Session s = Session::Builder()
                    .strategy(Strategy::kWholeSecded)
                    .private_observability()
                    .build();
    // Inside the session's lifetime the thread default IS the private one.
    EXPECT_EQ(&obs::default_registry(), &s.metrics());
    MatrixView m = s.abft_matrix(16, 16, "m");
    for (std::size_t i = 0; i < 16; ++i)
      s.memory().access(*s.os().virt_to_phys(&m(i, 0)),
                        memsim::AccessKind::kRead);
    EXPECT_GT(s.metrics().counter("memsim.dram_access.secded").value(), 0u);
  }
  EXPECT_EQ(&obs::default_registry(), &outer);
  EXPECT_EQ(outer.counter("memsim.dram_access.secded").value(), before);
}

PlatformOptions small_dgemm() {
  PlatformOptions opt;
  opt.dgemm_dim = 32;
  opt.cache_scale = 32;
  return opt;
}

memsim::FrontEndRecord record_dgemm(const PlatformOptions& opt) {
  memsim::FrontEndRecord rec;
  Session::Builder(opt).record_front_end(rec).build().run(Kernel::kDgemm);
  return rec;
}

TEST(FrontEndReplay, ReplayEqualsLiveRunUnderAnotherStrategy) {
  PlatformOptions opt = small_dgemm();
  opt.strategy = Strategy::kNoEcc;
  const memsim::FrontEndRecord rec = record_dgemm(opt);
  EXPECT_GT(rec.bytes(), 0u);
  opt.strategy = Strategy::kPartialChipkillSecded;
  const RunMetrics live = run_kernel(Kernel::kDgemm, opt);
  Session s = Session::Builder(opt).replay_front_end(rec).build();
  EXPECT_TRUE(s.run(Kernel::kDgemm) == live);
  // A session runs one recorded or replayed kernel.
  EXPECT_THROW(s.run(Kernel::kDgemm), ContractViolation);
}

TEST(FrontEndReplay, DifferentReferenceCountViolatesTheContract) {
  PlatformOptions opt = small_dgemm();
  const memsim::FrontEndRecord rec = record_dgemm(opt);
  opt.hardware_assisted = true;  // same buffers, fewer verify references
  Session s = Session::Builder(opt).replay_front_end(rec).build();
  EXPECT_THROW(s.run(Kernel::kDgemm), ContractViolation);
}

TEST(FrontEndReplay, DifferentRegionLayoutViolatesTheContract) {
  const PlatformOptions opt = small_dgemm();
  const memsim::FrontEndRecord rec = record_dgemm(opt);
  Session s = Session::Builder(opt).replay_front_end(rec).build();
  (void)s.plain_matrix(8, 8, "extra");  // shifts every kernel buffer
  EXPECT_THROW(s.run(Kernel::kDgemm), ContractViolation);
}

TEST(FrontEndReplay, DifferentCacheConfigViolatesTheContract) {
  PlatformOptions opt = small_dgemm();
  const memsim::FrontEndRecord rec = record_dgemm(opt);
  opt.cache_scale = 16;
  EXPECT_THROW(Session::Builder(opt).replay_front_end(rec).build(),
               ContractViolation);
}

TEST(FrontEndReplay, ArmedRefTriggerViolatesTheContract) {
  const PlatformOptions opt = small_dgemm();
  const memsim::FrontEndRecord rec = record_dgemm(opt);
  Session s = Session::Builder(opt).replay_front_end(rec).build();
  EXPECT_THROW(s.tap_context().set_ref_trigger(10, [] {}),
               ContractViolation);
}

TEST(FrontEndReplay, PendingInjectedFaultViolatesTheContract) {
  const PlatformOptions opt = small_dgemm();
  const memsim::FrontEndRecord rec = record_dgemm(opt);
  Session s = Session::Builder(opt).replay_front_end(rec).build();
  s.injector().inject_bit(0, 0);
  EXPECT_THROW(s.run(Kernel::kDgemm), ContractViolation);
}

TEST(FrontEndReplay, RecoveryManagerViolatesTheContract) {
  PlatformOptions opt = small_dgemm();
  const memsim::FrontEndRecord rec = record_dgemm(opt);
  opt.ladder = true;
  EXPECT_THROW(Session::Builder(opt).replay_front_end(rec).build(),
               ContractViolation);
  memsim::FrontEndRecord other;
  EXPECT_THROW(Session::Builder(opt).record_front_end(other).build(),
               ContractViolation);
}

TEST(FrontEndReplay, DirectMemoryAccessViolatesTheContract) {
  const PlatformOptions opt = small_dgemm();
  const memsim::FrontEndRecord rec = record_dgemm(opt);
  {
    Session s = Session::Builder(opt).replay_front_end(rec).build();
    s.flush_caches();
    EXPECT_THROW(s.run(Kernel::kDgemm), ContractViolation);
  }
  {
    memsim::FrontEndRecord other;
    Session s = Session::Builder(opt).record_front_end(other).build();
    s.flush_caches();
    EXPECT_THROW(s.run(Kernel::kDgemm), ContractViolation);
  }
}

}  // namespace
}  // namespace abftecc::sim

// Tests for the sim layer: MemoryTap translation (regions, line straddles,
// the region-only contract), front-end record and replay with its contract,
// strategy specs, and the DGMS spatial predictor.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "memsim/system.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
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

// The tap's cached translations must not outlive the layout they came
// from: a migrated region's references go to its new frames.
TEST(MemoryTapTest, MigratedRegionTranslatesToItsNewFrames) {
  Rig rig;
  const std::size_t page = rig.sys.config().page_bytes;
  auto* p = static_cast<std::uint8_t*>(
      rig.os.malloc_ecc(4 * page, ecc::Scheme::kNone, "m", true));
  MemoryTap tap(rig.ctx);
  tap.read(p);  // caches the region's translation
  ASSERT_EQ(rig.os.virt_to_phys(p), 0x0u);
  ASSERT_TRUE(rig.os.retire_and_migrate(p));
  ASSERT_EQ(rig.os.virt_to_phys(p + 3 * page), 0x7000u);

  // Evict everything the migration's copy left in the caches, outside the
  // tap, so the next reference fills from DRAM.
  const std::size_t flush = 4 * rig.sys.config().l2.size_bytes;
  const auto* f = static_cast<std::uint8_t*>(rig.os.malloc_plain(flush, "f"));
  const std::uint64_t f_phys = *rig.os.virt_to_phys(f);
  for (std::uint64_t off = 0; off < flush; off += 64)
    rig.sys.access(f_phys + off, memsim::AccessKind::kRead);

  std::vector<std::uint64_t> fills;
  rig.sys.hooks().fill_hook = [&](std::uint64_t line, ecc::Scheme, bool w) {
    if (!w) fills.push_back(line);
  };
  tap.read(p + 3 * page);
  EXPECT_EQ(fills, std::vector<std::uint64_t>{0x7000});
}

TEST(MemoryTapTest, FreedRegionViolatesTheContract) {
  Rig rig;
  auto* p = rig.os.malloc_ecc(4096, ecc::Scheme::kNone, "m", true);
  MemoryTap tap(rig.ctx);
  tap.read(p);  // caches the region's translation
  rig.os.free_ecc(p);
  EXPECT_THROW(tap.read(p), ContractViolation);
  EXPECT_EQ(rig.sys.stats().mem_refs, 1u);
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

// A synthetic stream over a region four times the L2 of scaled(32),
// walked twice with updates: a straddling reference at every 16th line
// boundary, and at every 8th line a read 4 KB back (past the L1, inside the
// L2). It has L2-hit misses, DRAM misses, posted writebacks and splits.
// `ref(offset, bytes, kind, straddles)` issues one reference.
template <typename Ref>
void synthetic_stream(std::size_t line, Ref&& ref) {
  constexpr std::size_t kBytes = 256 * 1024;
  constexpr std::size_t kBack = 4096;
  for (int pass = 0; pass < 2; ++pass)
    for (std::size_t off = 0; off + 8 <= kBytes; off += 8) {
      if (off % (16 * line) == line - 8) {
        ref(off + 4, 8, memsim::AccessKind::kUpdate, true);
      } else {
        ref(off, 8, memsim::AccessKind::kUpdate, false);
      }
      if (off % (8 * line) == 0 && off >= kBack)
        ref(off - kBack, 8, memsim::AccessKind::kRead, false);
    }
}

std::uint8_t* stream_region(Rig& rig, ecc::Scheme scheme) {
  auto* p = static_cast<std::uint8_t*>(
      rig.os.malloc_ecc(256 * 1024, scheme, "m", true));
  EXPECT_NE(p, nullptr);
  return p;
}

// The replay simulates its references only when the system's state is
// read. Every read in the middle of the run -- stats(), counter_sample()
// and the cycle clock, at misses, right after splits and at irregular
// reference counts -- must equal a live run's at the same point, and the
// demand-miss trace must carry the live run's cycle stamps.
TEST(FrontEndReplay, MidReplayObservationsEqualLive) {
  const memsim::SystemConfig cfg = memsim::SystemConfig::scaled(32);
  const std::size_t line = cfg.l1.line_bytes;
  memsim::FrontEndRecord rec;
  {
    Rig recording(cfg, ecc::Scheme::kChipkill);
    std::uint8_t* p = stream_region(recording, ecc::Scheme::kSecded);
    recording.ctx.record(rec);
    synthetic_stream(line, [&](std::size_t off, std::size_t n,
                               memsim::AccessKind kind, bool) {
      recording.ctx.issue(p + off, n, kind);
    });
    recording.ctx.finish();
  }
  EXPECT_GT(rec.splits(), 0u);

  Rig live(cfg, ecc::Scheme::kNone), replayed(cfg, ecc::Scheme::kNone);
  std::uint8_t* lp = stream_region(live, ecc::Scheme::kNone);
  std::uint8_t* rp = stream_region(replayed, ecc::Scheme::kNone);
  replayed.ctx.replay(rec);
  const TickClock live_clock = live.sys.cycle_clock();
  const TickClock replay_clock = replayed.sys.cycle_clock();
  // Each rig traces into its own tracer: the live one as it issues, the
  // replaying one whenever it settles.
  obs::Tracer live_trace, replay_trace;
  for (obs::Tracer* t : {&live_trace, &replay_trace}) {
    t->set_capacity(1 << 16);
    t->enable();
  }
  std::uint64_t refs = 0, misses = 0, splits = 0, observed = 0;
  std::uint64_t next_check = 1;
  bool same = true;
  synthetic_stream(line, [&](std::size_t off, std::size_t n,
                             memsim::AccessKind kind, bool straddles) {
    {
      obs::TracerScope scope(live_trace);
      live.ctx.issue(lp + off, n, kind);
    }
    obs::TracerScope scope(replay_trace);
    replayed.ctx.issue(rp + off, n, kind);
    ++refs;
    const std::uint64_t m = live.sys.l1_stats().misses;
    const bool at_miss = m != misses && m % 5 == 0;
    misses = m;
    const bool after_split = straddles && ++splits % 3 == 0;
    if (!at_miss && !after_split && refs != next_check) return;
    if (refs == next_check) next_check += 1 + (refs * 7919) % 211;
    // Each observation reads one accessor, so each must settle by itself.
    bool equal = false;
    switch (observed++ % 3) {
      case 0:
        equal = replayed.sys.stats() == live.sys.stats();
        break;
      case 1: {
        const obs::CounterSample a = live.sys.counter_sample();
        const obs::CounterSample b = replayed.sys.counter_sample();
        equal = a.cycles == b.cycles && a.stall_cycles == b.stall_cycles &&
                a.instructions == b.instructions &&
                a.dram_dynamic_pj == b.dram_dynamic_pj;
        break;
      }
      default:
        equal = replay_clock.now() == live_clock.now();
    }
    if (same && !equal) {
      ADD_FAILURE() << "replay differs from live at observation "
                    << observed - 1 << ", after reference " << refs;
      same = false;
    }
  });
  {
    obs::TracerScope scope(replay_trace);
    replayed.ctx.finish();
  }
  const std::vector<obs::TraceEvent> want = live_trace.snapshot();
  const std::vector<obs::TraceEvent> got = replay_trace.snapshot();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].ts, want[i].ts) << "event " << i;
    ASSERT_EQ(got[i].addr, want[i].addr) << "event " << i;
    ASSERT_EQ(got[i].a0, want[i].a0) << "event " << i;
  }

  EXPECT_GT(observed, 1000u);
  EXPECT_GT(want.size(), 1000u);
  EXPECT_GT(live.sys.l2_stats().hits, 0u);
  EXPECT_GT(live.sys.stats().demand_misses, 0u);
  EXPECT_GT(live.sys.stats().writebacks, 0u);
  EXPECT_TRUE(replayed.sys.stats() == live.sys.stats());
  EXPECT_TRUE(replayed.sys.dram_stats() == live.sys.dram_stats());
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

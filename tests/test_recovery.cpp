// Recovery escalation ladder: Fletcher-64 snapshot checksums, the
// CheckpointStore commit/restore contract (a corrupted checkpoint is
// detected and never restored), the RecoveryManager's attempt budgets and
// OS escalation policy, and the full in-kernel ladder walks of FT-DGEMM
// and FT-QR (tier-2 recompute and tier-3 rollback, including graceful
// kUnrecoverable when every tier is exhausted).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <vector>

#include "abft/ft_dgemm.hpp"
#include "abft/ft_qr.hpp"
#include "abft/runtime.hpp"
#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/manager.hpp"
#include "recovery/types.hpp"

namespace abftecc::recovery {
namespace {

// ----------------------------------------------------------- fletcher64 --

TEST(Fletcher64, SensitiveToAnySingleBit) {
  std::vector<std::byte> buf(4096, std::byte{0x5A});
  const std::uint64_t clean = fletcher64(buf.data(), buf.size());
  for (const std::size_t at : {std::size_t{0}, std::size_t{17},
                               std::size_t{4000}, buf.size() - 1}) {
    buf[at] ^= std::byte{0x01};
    EXPECT_NE(fletcher64(buf.data(), buf.size()), clean) << at;
    buf[at] ^= std::byte{0x01};
  }
  EXPECT_EQ(fletcher64(buf.data(), buf.size()), clean);
}

TEST(Fletcher64, LengthAwareOverZeroBytes) {
  // Plain Fletcher sums ignore trailing zeros; the +1 bias must not.
  const std::byte z[2] = {std::byte{0}, std::byte{0}};
  EXPECT_NE(fletcher64(z, 1), fletcher64(z, 2));
  EXPECT_NE(fletcher64(z, 0), fletcher64(z, 1));
}

TEST(Fletcher64, OrderSensitive) {
  const std::byte ab[2] = {std::byte{1}, std::byte{2}};
  const std::byte ba[2] = {std::byte{2}, std::byte{1}};
  EXPECT_NE(fletcher64(ab, 2), fletcher64(ba, 2));
}

// ------------------------------------------------------- CheckpointStore --

TEST(CheckpointStore, CommitRestoreRoundTrip) {
  std::vector<double> data(257, 1.5);
  CheckpointStore store;
  const auto id = store.track("data", data.data(),
                              data.size() * sizeof(double));
  EXPECT_TRUE(store.covers(&data[100]));
  EXPECT_FALSE(store.covers(&store));
  store.commit(3);
  EXPECT_TRUE(store.has_checkpoint());
  EXPECT_EQ(store.epoch(), 3u);

  for (auto& v : data) v = -7.0;  // corruption after the commit
  ASSERT_EQ(store.restore(), RestoreResult::kOk);
  for (const double v : data) EXPECT_EQ(v, 1.5);
  EXPECT_EQ(store.restores(), 1u);
  store.untrack(id);
  EXPECT_EQ(store.tracked_ranges(), 0u);
}

TEST(CheckpointStore, RestoreWithoutCommitRefuses) {
  std::vector<double> data(16, 2.0);
  CheckpointStore store;
  store.track("data", data.data(), data.size() * sizeof(double));
  EXPECT_EQ(store.restore(), RestoreResult::kNoCheckpoint);
  for (const double v : data) EXPECT_EQ(v, 2.0);
}

TEST(CheckpointStore, CorruptedSnapshotDetectedAndNeverRestored) {
  std::vector<double> data(64, 4.0);
  CheckpointStore store;
  const auto id = store.track("data", data.data(),
                              data.size() * sizeof(double));
  store.commit(1);

  // Rot in checkpoint storage itself, then corruption of the live data.
  store.snapshot_bytes(id)[11] ^= std::byte{0x40};
  data[5] = -1.0;

  EXPECT_EQ(store.restore(), RestoreResult::kCorrupted);
  // All-or-nothing: the live data is exactly as it was before restore().
  EXPECT_EQ(data[5], -1.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i != 5) {
      EXPECT_EQ(data[i], 4.0) << i;
    }
  }
  EXPECT_EQ(store.corrupted_detected(), 1u);
  EXPECT_EQ(store.restores(), 0u);
}

TEST(CheckpointStore, AllOrNothingAcrossRanges) {
  std::vector<double> a(32, 1.0), b(32, 2.0);
  CheckpointStore store;
  const auto ida = store.track("a", a.data(), a.size() * sizeof(double));
  store.track("b", b.data(), b.size() * sizeof(double));
  store.commit(1);
  store.snapshot_bytes(ida)[0] ^= std::byte{0xFF};
  a[0] = b[0] = -9.0;
  // One bad snapshot poisons the whole restore -- b is NOT restored either.
  EXPECT_EQ(store.restore(), RestoreResult::kCorrupted);
  EXPECT_EQ(a[0], -9.0);
  EXPECT_EQ(b[0], -9.0);
}

TEST(CheckpointStore, IntersectsSeesPageSlackNeighborhood) {
  std::vector<double> data(128, 0.0);
  CheckpointStore store;
  store.track("data", data.data(), data.size() * sizeof(double));
  const auto* base = reinterpret_cast<const std::byte*>(data.data());
  // An allocation span that starts inside the tracked range and extends
  // past it (page-granular slack) intersects; a disjoint span does not.
  EXPECT_TRUE(store.intersects(base + 64, 4096));
  EXPECT_FALSE(store.intersects(base + 128 * sizeof(double), 4096));
}

// ------------------------------------------------------- RecoveryManager --

TEST(RecoveryManager, RecomputeBudgetIsPerEpisodeAndRefills) {
  RecoveryOptions opt;
  opt.max_recompute_attempts = 2;
  RecoveryManager rm(opt);
  rm.begin_run();
  EXPECT_TRUE(rm.try_recompute());
  EXPECT_TRUE(rm.try_recompute());
  EXPECT_FALSE(rm.try_recompute());
  // A recovered episode refills the budget: recompute makes forward
  // progress, so the per-episode bound still terminates.
  rm.recompute_succeeded();
  EXPECT_TRUE(rm.try_recompute());
  EXPECT_EQ(rm.stats().recomputes, 1u);
  EXPECT_EQ(rm.stats().recompute_attempts, 3u);
  EXPECT_EQ(rm.verdict(), RecoveryVerdict::kRecoveredByRecompute);
}

TEST(RecoveryManager, RollbackBudgetIsPerRunAndNeverRefills) {
  RecoveryOptions opt;
  opt.max_rollback_attempts = 2;
  RecoveryManager rm(opt);
  rm.begin_run();
  EXPECT_TRUE(rm.try_rollback());
  EXPECT_TRUE(rm.try_rollback());
  EXPECT_FALSE(rm.try_rollback());
  rm.recompute_succeeded();  // refills recompute only
  EXPECT_FALSE(rm.try_rollback());
  // begin_run resets it (fresh kernel invocation).
  rm.begin_run();
  EXPECT_TRUE(rm.try_rollback());
}

TEST(RecoveryManager, DisabledTiersNeverGrantAttempts) {
  RecoveryOptions opt;
  opt.enable_recompute = false;
  opt.enable_rollback = false;
  RecoveryManager rm(opt);
  rm.begin_run();
  EXPECT_FALSE(rm.try_recompute());
  EXPECT_FALSE(rm.try_rollback());
}

TEST(RecoveryManager, EscalationAbsorbedOnlyWhenCheckpointCovered) {
  std::vector<double> data(64, 0.0);
  RecoveryManager rm;
  rm.begin_run();
  rm.store().track("data", data.data(), data.size() * sizeof(double));

  double stranger = 0.0;
  EXPECT_FALSE(rm.on_unprotected_error(&stranger));
  EXPECT_FALSE(rm.rollback_demanded());

  EXPECT_TRUE(rm.on_unprotected_error(&data[10]));
  EXPECT_TRUE(rm.rollback_demanded());
  EXPECT_EQ(rm.stats().escalations, 1u);
}

TEST(RecoveryManager, EscalationAbsorbsPageSlackOfTrackedAllocation) {
  // A fault past the tracked bytes but inside the owning (page-granular)
  // allocation is dead data: absorbable via the region span.
  std::vector<double> data(64, 0.0);
  RecoveryManager rm;
  rm.begin_run();
  rm.store().track("data", data.data(), 64 * sizeof(double) / 2);
  const void* tail = &data[40];  // past the tracked half
  EXPECT_FALSE(rm.on_unprotected_error(tail));
  EXPECT_TRUE(rm.on_unprotected_error(tail, data.data(),
                                      data.size() * sizeof(double)));
  EXPECT_TRUE(rm.rollback_demanded());
}

TEST(RecoveryManager, RollbackClearsDemandAndCorruptionIsCounted) {
  std::vector<double> data(64, 3.0);
  RecoveryManager rm;
  rm.begin_run();
  const auto id =
      rm.store().track("data", data.data(), data.size() * sizeof(double));
  rm.commit(1);
  ASSERT_TRUE(rm.on_unprotected_error(&data[0]));
  ASSERT_TRUE(rm.try_rollback());
  EXPECT_EQ(rm.rollback(), RestoreResult::kOk);
  EXPECT_FALSE(rm.rollback_demanded());
  EXPECT_EQ(rm.stats().rollbacks, 1u);
  EXPECT_EQ(rm.verdict(), RecoveryVerdict::kRecoveredByRollback);

  // Second escalation against a now-corrupted snapshot: detected, demand
  // NOT cleared, nothing restored.
  rm.store().snapshot_bytes(id)[3] ^= std::byte{0x10};
  ASSERT_TRUE(rm.on_unprotected_error(&data[0]));
  ASSERT_TRUE(rm.try_rollback());
  data[7] = -5.0;
  EXPECT_EQ(rm.rollback(), RestoreResult::kCorrupted);
  EXPECT_TRUE(rm.rollback_demanded());
  EXPECT_EQ(data[7], -5.0);
  EXPECT_EQ(rm.stats().corrupted_checkpoints, 1u);
}

TEST(RecoveryManager, UnrecoverableDominatesVerdict) {
  RecoveryManager rm;
  rm.begin_run();
  EXPECT_EQ(rm.verdict(), RecoveryVerdict::kNotNeeded);
  rm.mark_unrecoverable();
  EXPECT_EQ(rm.verdict(), RecoveryVerdict::kUnrecoverable);
}

// ------------------------------------------------ FT-DGEMM ladder walks --

/// Tap that applies a batch of additive corruptions at one reference
/// count: the multi-error patterns plain ABFT correction must refuse.
struct GridCorruptingTap {
  std::vector<double*> targets;
  std::uint64_t* counter;
  std::uint64_t fire_at;
  void read(const void*, std::size_t = 8) { tick(); }
  void write(const void*, std::size_t = 8) { tick(); }
  void update(const void*, std::size_t = 8) { tick(); }
  void tick() {
    if (++*counter == fire_at)
      for (double* t : targets) *t += 1000.0;
  }
};

struct DgemmFix {
  Matrix a, b, ac, br, cf;
  explicit DgemmFix(std::size_t n, std::uint64_t seed)
      : a(n, n), b(n, n), ac(n + 1, n), br(n, n + 1), cf(n + 1, n + 1) {
    Rng rng(seed);
    a = Matrix::random(n, n, rng);
    b = Matrix::random(n, n, rng);
  }
  abft::FtDgemm::Buffers buffers() { return {ac.view(), br.view(), cf.view()}; }
  Matrix reference() {
    Matrix c(a.rows(), b.cols());
    linalg::gemm(1.0, a.view(), b.view(), 0.0, c.view());
    return c;
  }
};

TEST(LadderDgemm, AmbiguousGridHealedByTier2Recompute) {
  DgemmFix s(64, 11);
  abft::Runtime rt;
  RecoveryManager rm;
  rt.set_recovery(&rm);
  abft::FtDgemm ft(s.a.view(), s.b.view(), s.buffers(), {}, &rt);

  // A 2x2 equal-magnitude grid mid-run: unlocatable by checksum pairing
  // (paper Case 4), so plain correction returns kUncorrectable and the
  // ladder's block recompute from the pristine inputs must take over.
  std::uint64_t counter = 0;
  TapBackend be(GridCorruptingTap{{&s.cf(10, 20), &s.cf(10, 30),
                                  &s.cf(40, 20), &s.cf(40, 30)},
                                 &counter, 120000});
  const abft::FtStatus st = ft.run(be);
  EXPECT_TRUE(st == abft::FtStatus::kOk ||
              st == abft::FtStatus::kCorrectedErrors)
      << to_string(st);
  EXPECT_GE(rm.stats().recomputes, 1u);
  EXPECT_EQ(rm.stats().rollbacks, 0u);
  Matrix ref = s.reference();
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-6);
}

TEST(LadderDgemm, RecomputeDisabledFallsThroughToRollback) {
  DgemmFix s(64, 12);
  abft::Runtime rt;
  RecoveryOptions opt;
  opt.enable_recompute = false;
  RecoveryManager rm(opt);
  rt.set_recovery(&rm);
  abft::FtDgemm ft(s.a.view(), s.b.view(), s.buffers(), {}, &rt);

  std::uint64_t counter = 0;
  TapBackend be(GridCorruptingTap{{&s.cf(5, 6), &s.cf(5, 26), &s.cf(45, 6),
                                  &s.cf(45, 26)},
                                 &counter, 120000});
  const abft::FtStatus st = ft.run(be);
  // The corrupting tap is one-shot, so the replay from the rolled-back
  // epoch is clean and the run completes correctly.
  EXPECT_TRUE(st == abft::FtStatus::kOk ||
              st == abft::FtStatus::kCorrectedErrors)
      << to_string(st);
  EXPECT_GE(rm.stats().rollbacks, 1u);
  Matrix ref = s.reference();
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-6);
}

TEST(LadderDgemm, ExhaustedLadderSurfacesUnrecoverableNotPanic) {
  DgemmFix s(64, 13);
  abft::Runtime rt;
  RecoveryOptions opt;
  opt.enable_recompute = false;
  opt.enable_rollback = false;
  RecoveryManager rm(opt);
  rt.set_recovery(&rm);
  abft::FtDgemm ft(s.a.view(), s.b.view(), s.buffers(), {}, &rt);

  std::uint64_t counter = 0;
  TapBackend be(GridCorruptingTap{{&s.cf(10, 20), &s.cf(10, 30),
                                  &s.cf(40, 20), &s.cf(40, 30)},
                                 &counter, 120000});
  EXPECT_EQ(ft.run(be), abft::FtStatus::kUnrecoverable);
  EXPECT_EQ(rm.verdict(), RecoveryVerdict::kUnrecoverable);
  EXPECT_EQ(rm.stats().unrecoverable, 1u);
}

// --------------------------------------------------- FT-QR ladder walks --

struct QrFix {
  Matrix a, aw;
  std::vector<double> tau;
  QrFix(std::size_t m, std::size_t n, std::uint64_t seed)
      : a(m, n), aw(m, n + 2), tau(n, 0.0) {
    Rng rng(seed);
    a = Matrix::random(m, n, rng);
    for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  }
  abft::FtQr::Buffers buffers() { return {aw.view(), tau}; }
};

TEST(LadderQr, SameRowPairHealedByTrailingRecompute) {
  QrFix s(64, 64, 14);
  abft::Runtime rt;
  RecoveryManager rm;
  rt.set_recovery(&rm);
  // Two errors in one trailing row: refused by per-row correction, healed
  // by regenerating the trailing columns from the original matrix.
  std::uint64_t counter = 0;
  TapBackend be(
      GridCorruptingTap{{&s.aw(50, 40), &s.aw(50, 55)}, &counter, 100000});
  abft::FtQr ft(be, s.a.view(), s.buffers(), {}, &rt, 16);
  const abft::FtStatus st = ft.factor(be);
  EXPECT_TRUE(st == abft::FtStatus::kOk ||
              st == abft::FtStatus::kCorrectedErrors)
      << to_string(st);
  EXPECT_GE(rm.stats().recomputes, 1u);

  // The factorization still solves the system.
  Rng rng(15);
  std::vector<double> x_true(64), rhs(64, 0.0), x(64);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  for (std::size_t i = 0; i < 64; ++i)
    for (std::size_t j = 0; j < 64; ++j) rhs[i] += s.a(i, j) * x_true[j];
  ft.solve(rhs, x);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);
}

TEST(LadderQr, RecomputeDisabledFallsThroughToRollback) {
  QrFix s(64, 64, 16);
  abft::Runtime rt;
  RecoveryOptions opt;
  opt.enable_recompute = false;
  RecoveryManager rm(opt);
  rt.set_recovery(&rm);
  std::uint64_t counter = 0;
  TapBackend be(
      GridCorruptingTap{{&s.aw(50, 40), &s.aw(50, 55)}, &counter, 100000});
  abft::FtQr ft(be, s.a.view(), s.buffers(), {}, &rt, 16);
  const abft::FtStatus st = ft.factor(be);
  EXPECT_TRUE(st == abft::FtStatus::kOk ||
              st == abft::FtStatus::kCorrectedErrors)
      << to_string(st);
  EXPECT_GE(rm.stats().rollbacks, 1u);

  Rng rng(17);
  std::vector<double> x_true(64), rhs(64, 0.0), x(64);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  for (std::size_t i = 0; i < 64; ++i)
    for (std::size_t j = 0; j < 64; ++j) rhs[i] += s.a(i, j) * x_true[j];
  ft.solve(rhs, x);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);
}

}  // namespace
}  // namespace abftecc::recovery

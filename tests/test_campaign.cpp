// Tests for the Monte Carlo fault-injection campaign engine: Wilson
// intervals, the outcome-classification rule, seed determinism across
// thread counts, the two classification edge cases the taxonomy must get
// right (a fault in the checksum row itself, and a fault landing after the
// last verification), and a small smoke campaign per kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>

#include "abft/ft_dgemm.hpp"
#include "campaign/campaign.hpp"
#include "common/matrix.hpp"
#include "linalg/blas.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "os/os.hpp"
#include "sim/platform.hpp"

namespace abftecc::campaign {
namespace {

/// Small inputs so a trial costs milliseconds, not seconds.
sim::PlatformOptions tiny_platform() {
  sim::PlatformOptions p;
  p.strategy = sim::Strategy::kPartialChipkillSecded;
  p.dgemm_dim = 48;
  p.cholesky_dim = 48;
  p.cg_dim = 96;
  p.cg_iterations = 2;
  p.hpl_dim = 48;
  return p;
}

// ------------------------------------------------------------- wilson --

TEST(Wilson, EmptySampleIsVacuous) {
  const Interval iv = wilson_interval(0, 0);
  EXPECT_EQ(iv.lo, 0.0);
  EXPECT_EQ(iv.hi, 1.0);
}

TEST(Wilson, ZeroSuccessesPinLowerBound) {
  const Interval iv = wilson_interval(0, 20);
  EXPECT_EQ(iv.lo, 0.0);
  // Closed form at k = 0: hi = z^2 / (n + z^2).
  EXPECT_NEAR(iv.hi, 1.96 * 1.96 / (20 + 1.96 * 1.96), 1e-9);
}

TEST(Wilson, AllSuccessesMirrorZeroSuccesses) {
  const Interval none = wilson_interval(0, 20);
  const Interval all = wilson_interval(20, 20);
  EXPECT_EQ(all.hi, 1.0);
  EXPECT_NEAR(all.lo, 1.0 - none.hi, 1e-12);
}

TEST(Wilson, HalfSampleIsSymmetricAroundHalf) {
  const Interval iv = wilson_interval(5, 10);
  EXPECT_NEAR(iv.lo + iv.hi, 1.0, 1e-12);
  // Textbook value for 5/10 at 95%.
  EXPECT_NEAR(iv.lo, 0.2366, 5e-4);
  EXPECT_NEAR(iv.hi, 0.7634, 5e-4);
}

TEST(Wilson, IntervalShrinksWithSampleSize) {
  const Interval small = wilson_interval(8, 16);
  const Interval large = wilson_interval(128, 256);
  EXPECT_LT(large.hi - large.lo, small.hi - small.lo);
}

// ------------------------------------------------------------ classify --

TEST(Classify, ReportedFailuresAreDetectedUncorrected) {
  using abft::FtStatus;
  EXPECT_EQ(classify(FtStatus::kUncorrectable, true, false, 0),
            Outcome::kDetectedUncorrected);
  EXPECT_EQ(classify(FtStatus::kNumericalFailure, true, false, 0),
            Outcome::kDetectedUncorrected);
  // An OS panic dominates even a clean ABFT status.
  EXPECT_EQ(classify(FtStatus::kOk, true, true, 0),
            Outcome::kDetectedUncorrected);
}

TEST(Classify, WrongOutputIsSilentCorruptionEvenAfterCorrections) {
  // A "successful" correction that still leaves the answer wrong must be
  // counted as SDC, not as corrected.
  EXPECT_EQ(classify(abft::FtStatus::kCorrectedErrors, false, false, 3),
            Outcome::kSilentDataCorruption);
  EXPECT_EQ(classify(abft::FtStatus::kOk, false, false, 0),
            Outcome::kSilentDataCorruption);
}

TEST(Classify, CorrectOutputSplitsOnWhetherAnythingWasRepaired) {
  EXPECT_EQ(classify(abft::FtStatus::kOk, true, false, 1),
            Outcome::kCorrected);
  EXPECT_EQ(classify(abft::FtStatus::kCorrectedErrors, true, false, 2),
            Outcome::kCorrected);
  EXPECT_EQ(classify(abft::FtStatus::kOk, true, false, 0),
            Outcome::kBenignMasked);
}

TEST(Classify, LadderTiersNameTheDeepestRecoveryThatFired) {
  using abft::FtStatus;
  // Rollback dominates recompute dominates element correction.
  EXPECT_EQ(classify(FtStatus::kOk, true, false, 0, 1, 0),
            Outcome::kRecoveredByRecompute);
  EXPECT_EQ(classify(FtStatus::kCorrectedErrors, true, false, 2, 1, 0),
            Outcome::kRecoveredByRecompute);
  EXPECT_EQ(classify(FtStatus::kOk, true, false, 0, 0, 1),
            Outcome::kRecoveredByRollback);
  EXPECT_EQ(classify(FtStatus::kOk, true, false, 3, 2, 1),
            Outcome::kRecoveredByRollback);
}

TEST(Classify, UnrecoverableAndFailuresDominateLadderCounts) {
  using abft::FtStatus;
  // An exhausted ladder is its own class even if earlier tiers fired.
  EXPECT_EQ(classify(FtStatus::kUnrecoverable, true, false, 0, 2, 2),
            Outcome::kUnrecoverable);
  // A panic still dominates everything.
  EXPECT_EQ(classify(FtStatus::kUnrecoverable, true, true, 0, 2, 2),
            Outcome::kDetectedUncorrected);
  // A recovery that still left the answer wrong is SDC, not "recovered".
  EXPECT_EQ(classify(FtStatus::kOk, false, false, 0, 1, 1),
            Outcome::kSilentDataCorruption);
}

// --------------------------------------------------------- determinism --

TEST(Campaign, SameSeedIsBitIdenticalAcrossThreadCounts) {
  CampaignOptions opt;
  opt.kernel = sim::Kernel::kDgemm;
  opt.platform = tiny_platform();
  opt.trials = 8;
  opt.campaign_seed = 7;

  opt.threads = 1;
  const CampaignResult serial = run_campaign(opt);
  opt.threads = 2;
  const CampaignResult pooled = run_campaign(opt);

  ASSERT_EQ(serial.trials.size(), pooled.trials.size());
  for (std::size_t i = 0; i < serial.trials.size(); ++i) {
    const TrialOutcome& a = serial.trials[i];
    const TrialOutcome& b = pooled.trials[i];
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.inject_ref, b.inject_ref);
    EXPECT_EQ(a.fault_phys, b.fault_phys);
    EXPECT_EQ(a.fault_bit, b.fault_bit);
    EXPECT_EQ(a.ecc_corrected, b.ecc_corrected);
    EXPECT_EQ(a.ecc_uncorrectable, b.ecc_uncorrectable);
    EXPECT_EQ(a.silent_corruptions, b.silent_corruptions);
    EXPECT_EQ(a.cleared_by_writeback, b.cleared_by_writeback);
    EXPECT_EQ(a.abft_detected, b.abft_detected);
    EXPECT_EQ(a.abft_corrected, b.abft_corrected);
    EXPECT_EQ(a.panicked, b.panicked);
    EXPECT_EQ(a.materialized, b.materialized);
    EXPECT_EQ(a.max_abs_error, b.max_abs_error);
  }
  EXPECT_EQ(serial.corrected.count, pooled.corrected.count);
  EXPECT_EQ(serial.unclassified, pooled.unclassified);
}

/// A fault-storm scenario that historically ended in Os::panic: SECDED
/// everywhere (every double-bit flip is detected-uncorrectable) and sites
/// sampled over all allocations, so plain kernel inputs get hit too.
CampaignOptions storm_options(bool ladder) {
  CampaignOptions opt;
  opt.kernel = sim::Kernel::kDgemm;
  opt.platform = tiny_platform();
  opt.platform.strategy = sim::Strategy::kWholeSecded;
  opt.platform.ladder = ladder;
  opt.fault.kind = FaultKind::kDoubleBit;
  opt.fault.count = 3;
  opt.fault.storm_all_ranges = true;
  opt.trials = 12;
  opt.campaign_seed = 7;
  return opt;
}

std::string jsonl_bytes(const CampaignResult& res) {
  std::FILE* f = std::tmpfile();
  for (const TrialOutcome& t : res.trials)
    write_trial_jsonl(f, res.options, t);
  std::string out(static_cast<std::size_t>(std::ftell(f)), '\0');
  std::rewind(f);
  const std::size_t got = std::fread(out.data(), 1, out.size(), f);
  std::fclose(f);
  out.resize(got);
  return out;
}

// The determinism contract must survive the ladder: a multi-fault storm
// campaign with recovery enabled serializes byte-identically regardless
// of thread count, including the new outcome classes and ladder counters.
TEST(Campaign, LadderStormJsonlIsByteIdenticalAcrossThreadCounts) {
  CampaignOptions opt = storm_options(/*ladder=*/true);
  const GoldenRun golden = run_golden(opt);

  opt.threads = 1;
  const std::string serial = jsonl_bytes(run_campaign(opt, golden));
  opt.threads = 4;
  const std::string four = jsonl_bytes(run_campaign(opt, golden));
  opt.threads = 8;
  const std::string eight = jsonl_bytes(run_campaign(opt, golden));

  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, eight);
  // The storm actually exercises the new taxonomy.
  EXPECT_NE(serial.find("recovered_by_rollback"), std::string::npos);
}

// The before/after story of the escalation ladder: the same storm that
// panics with the ladder off finishes every trial with it on, the former
// panics reclassified as recovered or (gracefully) unrecoverable.
TEST(Campaign, LadderTurnsStormPanicsIntoRecoveries) {
  const CampaignResult off = run_campaign(storm_options(/*ladder=*/false));
  ASSERT_GT(off.panicked_trials, 0u);

  const CampaignResult on = run_campaign(storm_options(/*ladder=*/true));
  EXPECT_EQ(on.panicked_trials, 0u);
  EXPECT_GE(on.recovered_by_rollback.count + on.recovered_by_recompute.count +
                on.unrecoverable.count,
            off.panicked_trials);
}

TEST(Campaign, DifferentSeedsPickDifferentFaultSites) {
  CampaignOptions opt;
  opt.kernel = sim::Kernel::kDgemm;
  opt.platform = tiny_platform();
  opt.trials = 4;

  opt.campaign_seed = 7;
  const CampaignResult a = run_campaign(opt);
  opt.campaign_seed = 8;
  const CampaignResult b = run_campaign(opt);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.trials.size(); ++i)
    any_differs = any_differs ||
                  a.trials[i].inject_ref != b.trials[i].inject_ref ||
                  a.trials[i].fault_phys != b.trials[i].fault_phys;
  EXPECT_TRUE(any_differs);
}

// ---------------------------------------------------------- edge cases --

/// Copy a host matrix into plain Os memory on `s`, where a simulated
/// kernel can reference it.
MatrixView on_node(sim::Session& s, const Matrix& m, const char* name) {
  const MatrixView v = s.plain_matrix(m.rows(), m.cols(), name);
  std::copy_n(m.data(), m.size(), v.data());
  return v;
}

// A fault in the checksum row itself (not the payload) must come back as
// corrected: FtDgemm recomputes the damaged checksum entry from the
// payload instead of "repairing" correct data against a bad checksum.
TEST(Campaign, ChecksumRowFaultIsCorrected) {
  const std::size_t n = 32;
  // Relaxed ECC on ABFT data so the flip reaches the application.
  sim::Session s = sim::Session::Builder()
                       .strategy(sim::Strategy::kPartialChipkillNoEcc)
                       .build();
  Rng rng(5);
  Matrix a = Matrix::random(n, n, rng), b = Matrix::random(n, n, rng);
  abft::FtDgemm::Buffers buf{s.abft_matrix(n + 1, n, "Ac"),
                             s.abft_matrix(n, n + 1, "Br"),
                             s.abft_matrix(n + 1, n + 1, "Cf")};
  abft::FtDgemm ft(on_node(s, a, "A"), on_node(s, b, "B"), buf,
                   abft::FtOptions{}, &s.runtime());
  ASSERT_EQ(ft.run(s.backend()), abft::FtStatus::kOk);

  // Flip a high-mantissa bit (byte 6) of a checksum-row element.
  ASSERT_TRUE(s.injector().corrupt_virtual_now(
      reinterpret_cast<char*>(&buf.cf(n, 3)) + 6, 3));
  const abft::FtStatus st = ft.verify_and_correct(s.backend());
  EXPECT_EQ(st, abft::FtStatus::kCorrectedErrors);

  Matrix ref(n, n);
  linalg::gemm(1.0, a.view(), b.view(), 0.0, ref.view());
  const bool correct = max_abs_diff(ft.result(), ref.view()) < 1e-9;
  EXPECT_TRUE(correct);
  EXPECT_EQ(classify(st, correct, s.os().panicked(),
                     ft.stats().errors_corrected),
            Outcome::kCorrected);
}

// A fault that lands after the final verification is the taxonomy's
// canonical silent-data-corruption case: nothing is left to detect it.
TEST(Campaign, FaultAfterLastVerifyIsSilentDataCorruption) {
  const std::size_t n = 32;
  sim::Session s = sim::Session::Builder()
                       .strategy(sim::Strategy::kPartialChipkillNoEcc)
                       .build();
  Rng rng(5);
  Matrix a = Matrix::random(n, n, rng), b = Matrix::random(n, n, rng);
  abft::FtDgemm::Buffers buf{s.abft_matrix(n + 1, n, "Ac"),
                             s.abft_matrix(n, n + 1, "Br"),
                             s.abft_matrix(n + 1, n + 1, "Cf")};
  abft::FtDgemm ft(on_node(s, a, "A"), on_node(s, b, "B"), buf,
                   abft::FtOptions{}, &s.runtime());
  const abft::FtStatus st = ft.run(s.backend());  // last verify happens in here
  ASSERT_EQ(st, abft::FtStatus::kOk);

  // Payload flip after the run: a high-mantissa bit so the value moves.
  ASSERT_TRUE(s.injector().corrupt_virtual_now(
      reinterpret_cast<char*>(&buf.cf(3, 4)) + 6, 3));

  Matrix ref(n, n);
  linalg::gemm(1.0, a.view(), b.view(), 0.0, ref.view());
  const bool correct = max_abs_diff(ft.result(), ref.view()) < 1e-9;
  EXPECT_FALSE(correct);
  EXPECT_EQ(classify(st, correct, s.os().panicked(),
                     ft.stats().errors_corrected),
            Outcome::kSilentDataCorruption);
}

// --------------------------------------------------------------- smoke --

// 64 trials per kernel under the cooperative P_CK+P_SD design point with
// single-bit faults: every fault must materialize, and SECDED corrects
// every single-bit flip, so the corrected fraction is exactly 1.
TEST(Campaign, SmokeEveryKernelSingleBitAllCorrected) {
  for (const sim::Kernel k :
       {sim::Kernel::kDgemm, sim::Kernel::kCholesky, sim::Kernel::kCg,
        sim::Kernel::kHpl}) {
    CampaignOptions opt;
    opt.kernel = k;
    opt.platform = tiny_platform();
    opt.trials = 64;
    opt.threads = 2;
    opt.campaign_seed = 7;
    const CampaignResult res = run_campaign(opt);
    EXPECT_EQ(res.unclassified, 0u) << sim::kernel_name(k);
    EXPECT_EQ(res.corrected.count, opt.trials) << sim::kernel_name(k);
    EXPECT_EQ(res.corrected.fraction, 1.0) << sim::kernel_name(k);
    EXPECT_EQ(res.silent_data_corruption.count, 0u) << sim::kernel_name(k);
    EXPECT_EQ(res.rate(Outcome::kCorrected).count, res.corrected.count);
  }
}

}  // namespace
}  // namespace abftecc::campaign

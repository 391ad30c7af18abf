// FT-DGEMM: result correctness, error detection/correction across injected
// patterns, checksum-entry self-repair, and capability limits.
#include <gtest/gtest.h>

#include "abft/ft_dgemm.hpp"
#include "abft/runtime.hpp"
#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "recovery/manager.hpp"

namespace abftecc::abft {
namespace {

struct Fix {
  Matrix a, b, ac, br, cf;
  NativeBackend be;
  Fix(std::size_t m, std::size_t n, std::size_t k, std::uint64_t seed)
      : a(m, k), b(k, n), ac(m + 1, k), br(k, n + 1), cf(m + 1, n + 1) {
    Rng rng(seed);
    a = Matrix::random(m, k, rng);
    b = Matrix::random(k, n, rng);
  }
  FtDgemm::Buffers buffers() {
    return {ac.view(), br.view(), cf.view()};
  }
  Matrix reference() {
    Matrix c(a.rows(), b.cols());
    linalg::gemm(1.0, a.view(), b.view(), 0.0, c.view());
    return c;
  }
};

TEST(FtDgemm, CleanRunMatchesPlainGemm) {
  Fix s(96, 80, 112, 1);
  FtDgemm ft(s.a.view(), s.b.view(), s.buffers());
  EXPECT_EQ(ft.run(s.be), FtStatus::kOk);
  Matrix ref = s.reference();
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-9);
  EXPECT_EQ(ft.stats().errors_detected, 0u);
  EXPECT_GT(ft.stats().verifications, 0u);
}

TEST(FtDgemm, ChecksumInvariantHoldsAfterRun) {
  Fix s(64, 64, 64, 2);
  FtDgemm ft(s.a.view(), s.b.view(), s.buffers());
  ASSERT_EQ(ft.run(s.be), FtStatus::kOk);
  // Column sums of the payload equal the checksum row.
  for (std::size_t j = 0; j < 64; ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < 64; ++i) sum += s.cf(i, j);
    EXPECT_NEAR(sum, s.cf(64, j), 1e-8);
  }
  for (std::size_t i = 0; i < 64; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < 64; ++j) sum += s.cf(i, j);
    EXPECT_NEAR(sum, s.cf(i, 64), 1e-8);
  }
}

TEST(FtDgemm, SingleErrorDetectedAndCorrected) {
  Fix s(64, 64, 64, 3);
  FtDgemm ft(s.a.view(), s.b.view(), s.buffers());
  // Run clean, then corrupt and invoke verification directly.
  ASSERT_EQ(ft.run(s.be), FtStatus::kOk);
  Matrix ref = s.reference();
  s.cf(17, 23) += 5.0;
  EXPECT_EQ(ft.verify_and_correct(s.be), FtStatus::kCorrectedErrors);
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-8);
  EXPECT_EQ(ft.stats().errors_corrected, 1u);
}

TEST(FtDgemm, MultipleErrorsSameRowCorrected) {
  Fix s(64, 64, 64, 4);
  FtDgemm ft(s.a.view(), s.b.view(), s.buffers());
  ASSERT_EQ(ft.run(s.be), FtStatus::kOk);
  Matrix ref = s.reference();
  s.cf(9, 3) += 2.0;
  s.cf(9, 40) -= 7.0;
  s.cf(9, 63) += 1.5;
  EXPECT_EQ(ft.verify_and_correct(s.be), FtStatus::kCorrectedErrors);
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-8);
}

TEST(FtDgemm, MultipleErrorsSameColumnCorrected) {
  Fix s(64, 64, 64, 5);
  FtDgemm ft(s.a.view(), s.b.view(), s.buffers());
  ASSERT_EQ(ft.run(s.be), FtStatus::kOk);
  Matrix ref = s.reference();
  s.cf(5, 31) += 4.0;
  s.cf(44, 31) -= 2.5;
  EXPECT_EQ(ft.verify_and_correct(s.be), FtStatus::kCorrectedErrors);
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-8);
}

TEST(FtDgemm, DistinctRowColErrorsPairedByMagnitude) {
  Fix s(64, 64, 64, 6);
  FtDgemm ft(s.a.view(), s.b.view(), s.buffers());
  ASSERT_EQ(ft.run(s.be), FtStatus::kOk);
  Matrix ref = s.reference();
  s.cf(7, 11) += 3.0;
  s.cf(50, 60) -= 9.0;
  EXPECT_EQ(ft.verify_and_correct(s.be), FtStatus::kCorrectedErrors);
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-8);
}

TEST(FtDgemm, CorruptedChecksumRowEntryRepaired) {
  Fix s(64, 64, 64, 7);
  FtDgemm ft(s.a.view(), s.b.view(), s.buffers());
  ASSERT_EQ(ft.run(s.be), FtStatus::kOk);
  s.cf(64, 20) += 11.0;  // checksum row itself corrupted
  EXPECT_EQ(ft.verify_and_correct(s.be), FtStatus::kCorrectedErrors);
  double sum = 0.0;
  for (std::size_t i = 0; i < 64; ++i) sum += s.cf(i, 20);
  EXPECT_NEAR(sum, s.cf(64, 20), 1e-8);
}

TEST(FtDgemm, ErrorDuringAccumulationCorrectedByPeriodicVerify) {
  // Corrupt mid-run through a tap that fires once at a chosen reference
  // count -- simulates a fail-continue soft error between verifications.
  struct CorruptingTap {
    double* target;
    std::uint64_t* counter;
    std::uint64_t fire_at;
    void read(const void*, std::size_t = 8) { tick(); }
    void write(const void*, std::size_t = 8) { tick(); }
    void update(const void*, std::size_t = 8) { tick(); }
    void tick() {
      if (++*counter == fire_at) *target += 1000.0;
    }
  };
  Fix s(96, 96, 192, 8);
  FtDgemm ft(s.a.view(), s.b.view(), s.buffers());
  std::uint64_t counter = 0;
  TapBackend be(CorruptingTap{&s.cf(33, 44), &counter, 2000000});
  const FtStatus st = ft.run(be);
  EXPECT_EQ(st, FtStatus::kCorrectedErrors);
  Matrix ref = s.reference();
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-7);
  EXPECT_GE(ft.stats().errors_corrected, 1u);
}

TEST(FtDgemm, AmbiguousGridPatternReportedUncorrectable) {
  // 2x2 grid of equal-magnitude errors cannot be paired uniquely.
  Fix s(64, 64, 64, 9);
  FtDgemm ft(s.a.view(), s.b.view(), s.buffers());
  ASSERT_EQ(ft.run(s.be), FtStatus::kOk);
  s.cf(10, 20) += 3.0;
  s.cf(10, 30) += 3.0;
  s.cf(40, 20) += 3.0;
  s.cf(40, 30) += 3.0;
  // Rows 10/40 and cols 20/30 all show residual 6.0: ambiguous pairing.
  EXPECT_EQ(ft.verify_and_correct(s.be), FtStatus::kUncorrectable);
}

// --- Case-4 pinning (paper Section 4) ----------------------------------------
// Multi-error patterns that defeat checksum pairing must NEVER be silently
// mis-corrected: without the ladder the kernel reports kUncorrectable, with
// the ladder it recomputes and finishes correct. Either way the fault is
// detected and the result is never silently wrong.

TEST(FtDgemm, Case4LShapePatternRefusedNotMiscorrected) {
  Fix s(64, 64, 64, 20);
  FtDgemm ft(s.a.view(), s.b.view(), s.buffers());
  ASSERT_EQ(ft.run(s.be), FtStatus::kOk);
  Matrix ref = s.reference();
  // L-shape: two faults sharing row 12 AND two sharing column 21, with
  // magnitudes chosen so no row residual equals any column residual
  // (rows see 11 and 13, columns 17 and 7): pairing must fail loudly.
  // (Equal-magnitude L-shapes alias to a legitimate two-error pattern --
  // a fundamental ABFT detectability limit, not a refusal case.)
  s.cf(12, 21) += 4.0;
  s.cf(12, 44) += 7.0;
  s.cf(33, 21) += 13.0;
  EXPECT_EQ(ft.verify_and_correct(s.be), FtStatus::kUncorrectable);
  // Detected, refused, and no partial "repair" was invented: the payload
  // still carries exactly the injected deltas.
  EXPECT_GE(ft.stats().errors_detected, 1u);
  EXPECT_NEAR(s.cf(12, 21) - ref(12, 21), 4.0, 1e-8);
  EXPECT_NEAR(s.cf(12, 44) - ref(12, 44), 7.0, 1e-8);
  EXPECT_NEAR(s.cf(33, 21) - ref(33, 21), 13.0, 1e-8);
}

TEST(FtDgemm, Case4GridHealedWhenLadderAttached) {
  Fix s(64, 64, 64, 21);
  Runtime rt;
  recovery::RecoveryManager rm;
  rt.set_recovery(&rm);
  FtDgemm ft(s.a.view(), s.b.view(), s.buffers(), {}, &rt);
  ASSERT_EQ(ft.run(s.be), FtStatus::kOk);
  Matrix ref = s.reference();
  s.cf(10, 20) += 3.0;
  s.cf(10, 30) += 3.0;
  s.cf(40, 20) += 3.0;
  s.cf(40, 30) += 3.0;
  // verify_and_correct alone still refuses (the ladder lives in run());
  // pin that the refusal is loud, not a silent mis-correction.
  EXPECT_EQ(ft.verify_and_correct(s.be), FtStatus::kUncorrectable);
  // A fresh ladder-driven run over the same buffers heals end to end.
  ASSERT_TRUE(ft.run(s.be) == FtStatus::kOk ||
              ft.run(s.be) == FtStatus::kCorrectedErrors);
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-6);
}

TEST(FtDgemm, ChecksumRowFaultStaysDetectedUnderLadder) {
  Fix s(64, 64, 64, 22);
  Runtime rt;
  recovery::RecoveryManager rm;
  rt.set_recovery(&rm);
  FtDgemm ft(s.a.view(), s.b.view(), s.buffers(), {}, &rt);
  ASSERT_EQ(ft.run(s.be), FtStatus::kOk);
  Matrix ref = s.reference();
  // Fault in the checksum row itself: must be detected and repaired from
  // the payload, never "corrected" into the payload.
  s.cf(64, 7) += 11.0;
  EXPECT_EQ(ft.verify_and_correct(s.be), FtStatus::kCorrectedErrors);
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-8);
  EXPECT_EQ(rm.verdict(), recovery::RecoveryVerdict::kNotNeeded);
}

TEST(FtDgemm, NonSquareShapesSupported) {
  Fix s(50, 130, 70, 10);
  FtDgemm ft(s.a.view(), s.b.view(), s.buffers());
  EXPECT_EQ(ft.run(s.be), FtStatus::kOk);
  Matrix ref = s.reference();
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-9);
}

TEST(FtDgemm, VerifyPeriodControlsVerificationCount) {
  Fix s1(64, 64, 256, 11), s2(64, 64, 256, 11);
  FtOptions opt1;
  opt1.verify_period = 1;
  FtOptions opt4;
  opt4.verify_period = 4;
  FtDgemm f1(s1.a.view(), s1.b.view(), s1.buffers(), opt1);
  FtDgemm f4(s2.a.view(), s2.b.view(), s2.buffers(), opt4);
  ASSERT_EQ(f1.run(s1.be), FtStatus::kOk);
  ASSERT_EQ(f4.run(s2.be), FtStatus::kOk);
  EXPECT_GT(f1.stats().verifications, f4.stats().verifications);
}

TEST(FtDgemm, StatsTimersAccumulate) {
  Fix s(96, 96, 96, 12);
  FtDgemm ft(s.a.view(), s.b.view(), s.buffers());
  ASSERT_EQ(ft.run(s.be), FtStatus::kOk);
  EXPECT_GT(ft.stats().encode_seconds, 0.0);
  EXPECT_GT(ft.stats().verify_seconds, 0.0);
}

}  // namespace
}  // namespace abftecc::abft

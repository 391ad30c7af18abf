// FT-LU: fail-continue soft-error CORRECTION on the pivoted LU (the
// two-extra-checksum-row mode of FtHpl), including coexistence with the
// fail-stop recovery machinery.
#include <gtest/gtest.h>

#include "abft/ft_hpl.hpp"
#include "common/rng.hpp"
#include "linalg/generate.hpp"

namespace abftecc::abft {
namespace {

struct Fix {
  linalg::LinearSystem sys;
  Matrix ae, uc;
  std::size_t n, procs, h;
  NativeBackend be;
  Fix(std::size_t n_, std::size_t procs_, std::uint64_t seed)
      : n(n_), procs(procs_), h(n_ / procs_) {
    Rng rng(seed);
    sys = linalg::make_general_system(n, rng);
    ae = Matrix(n + h + 2, n + 1);  // +2: global sum/weighted rows
    uc = Matrix(h, n + 1);
  }
  FtHpl::Buffers buffers() { return {ae.view(), uc.view()}; }
  void expect_solution(FtHpl& ft, double tol = 1e-6) {
    std::vector<double> x(n);
    ft.solve(x);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_NEAR(x[i], sys.x_true[i], tol) << i;
  }
};

TEST(FtLu, SoftModeDetectedFromBufferShape) {
  Fix s(64, 4, 1);
  FtHpl ft(s.be, s.sys.a.view(), s.sys.b, 4, s.buffers(), {}, nullptr, 32);
  EXPECT_TRUE(ft.soft_correction_enabled());
  EXPECT_EQ(ft.factor(s.be), FtStatus::kOk);
  s.expect_solution(ft);
}

TEST(FtLu, TrailingSoftErrorCorrectedNotJustDetected) {
  Fix s(96, 4, 2);
  FtHpl ft(s.be, s.sys.a.view(), s.sys.b, 4, s.buffers(), {}, nullptr, 32);
  ASSERT_EQ(ft.factor_steps(32, s.be), FtStatus::kOk);
  // Corrupt an element of the active trailing matrix.
  s.ae(70, 80) += 50.0;
  EXPECT_EQ(ft.verify_active(s.be), FtStatus::kOk);  // repaired in place
  EXPECT_GE(ft.stats().errors_corrected, 1u);
  ASSERT_EQ(ft.factor_steps(96, s.be), FtStatus::kOk);
  s.expect_solution(ft);
}

TEST(FtLu, ErrorSurvivesPivotingViaOriginalRowWeights) {
  // Factor far enough that rows have been swapped, then corrupt: the
  // weighted checksum must still locate the right (current) position.
  Fix s(128, 4, 3);
  FtHpl ft(s.be, s.sys.a.view(), s.sys.b, 4, s.buffers(), {}, nullptr, 32);
  ASSERT_EQ(ft.factor_steps(64, s.be), FtStatus::kOk);
  // Pick a definitely-active position.
  std::size_t pos = 64;
  s.ae(pos + 10, 100) -= 123.0;
  EXPECT_EQ(ft.verify_active(s.be), FtStatus::kOk);
  EXPECT_GE(ft.stats().errors_corrected, 1u);
  ASSERT_EQ(ft.factor_steps(128, s.be), FtStatus::kOk);
  s.expect_solution(ft);
}

TEST(FtLu, ErrorsInMultipleColumnsAllCorrected) {
  Fix s(96, 4, 4);
  FtHpl ft(s.be, s.sys.a.view(), s.sys.b, 4, s.buffers(), {}, nullptr, 32);
  ASSERT_EQ(ft.factor_steps(32, s.be), FtStatus::kOk);
  s.ae(50, 40) += 9.0;
  s.ae(61, 55) -= 4.0;
  s.ae(88, 96) += 2.5;  // the carried b column
  EXPECT_EQ(ft.verify_active(s.be), FtStatus::kOk);
  EXPECT_GE(ft.stats().errors_corrected, 3u);
  ASSERT_EQ(ft.factor_steps(96, s.be), FtStatus::kOk);
  s.expect_solution(ft);
}

TEST(FtLu, TwoErrorsSameColumnRefused) {
  Fix s(96, 4, 5);
  FtHpl ft(s.be, s.sys.a.view(), s.sys.b, 4, s.buffers(), {}, nullptr, 32);
  ASSERT_EQ(ft.factor_steps(32, s.be), FtStatus::kOk);
  s.ae(50, 40) += 9.0;
  s.ae(70, 40) += 5.0;
  EXPECT_EQ(ft.verify_active(s.be), FtStatus::kUncorrectable);
}

TEST(FtLu, CorruptionDuringFactorizationCaughtByPeriodicVerify) {
  struct CorruptingTap {
    double* target;
    std::uint64_t* counter;
    std::uint64_t fire_at;
    void read(const void*, std::size_t = 8) { tick(); }
    void write(const void*, std::size_t = 8) { tick(); }
    void update(const void*, std::size_t = 8) { tick(); }
    void tick() {
      if (++*counter == fire_at) *target += 300.0;
    }
  };
  Fix s(128, 4, 6);
  FtOptions opt;
  opt.verify_period = 1;
  std::uint64_t counter = 0;
  // Deep trailing element, hit during the first panel's trailing update.
  TapBackend be(CorruptingTap{&s.ae(120, 110), &counter, 120000});
  FtHpl ft(be, s.sys.a.view(), s.sys.b, 4, s.buffers(), opt, nullptr, 32);
  const FtStatus st = ft.factor(be);
  ASSERT_TRUE(st == FtStatus::kOk || st == FtStatus::kCorrectedErrors);
  EXPECT_GE(ft.stats().errors_corrected, 1u);
  s.expect_solution(ft, 1e-5);
}

TEST(FtLu, FailStopRecoveryStillWorksInSoftMode) {
  Fix s(96, 4, 7);
  FtHpl ft(s.be, s.sys.a.view(), s.sys.b, 4, s.buffers(), {}, nullptr, 32);
  ASSERT_EQ(ft.factor_steps(64, s.be), FtStatus::kOk);
  ft.simulate_failstop(1);
  EXPECT_EQ(ft.recover_process(1, s.be), FtStatus::kCorrectedErrors);
  ASSERT_EQ(ft.factor_steps(96, s.be), FtStatus::kOk);
  s.expect_solution(ft);
}

TEST(FtLu, SoftThenFailStopInOneRun) {
  Fix s(128, 4, 8);
  FtHpl ft(s.be, s.sys.a.view(), s.sys.b, 4, s.buffers(), {}, nullptr, 32);
  ASSERT_EQ(ft.factor_steps(32, s.be), FtStatus::kOk);
  s.ae(90, 70) += 17.0;  // soft error...
  EXPECT_EQ(ft.verify_active(s.be), FtStatus::kOk);
  ASSERT_EQ(ft.factor_steps(64, s.be), FtStatus::kOk);
  ft.simulate_failstop(3);  // ...then a process loss
  EXPECT_EQ(ft.recover_process(3, s.be), FtStatus::kCorrectedErrors);
  ASSERT_EQ(ft.factor_steps(128, s.be), FtStatus::kOk);
  s.expect_solution(ft);
}

class FtLuRandomSoftErrors : public ::testing::TestWithParam<int> {};

TEST_P(FtLuRandomSoftErrors, CorrectsOrRefusesAcrossSeeds) {
  const int seed = GetParam();
  Rng rng(4000 + seed);
  Fix s(96, 4, 500 + seed);
  FtHpl ft(s.be, s.sys.a.view(), s.sys.b, 4, s.buffers(), {}, nullptr, 32);
  const std::size_t boundary = 32 * (1 + rng.below(2));
  ASSERT_EQ(ft.factor_steps(boundary, s.be), FtStatus::kOk);
  // Corrupt a random active element in a random trailing column.
  const std::size_t pos = boundary + rng.below(96 - boundary);
  const std::size_t j = boundary + rng.below(97 - boundary);
  s.ae(pos, j) += rng.uniform(5.0, 500.0);
  const FtStatus st = ft.verify_active(s.be);
  ASSERT_NE(st, FtStatus::kNumericalFailure);
  if (st != FtStatus::kUncorrectable) {
    ASSERT_EQ(ft.factor_steps(96, s.be), FtStatus::kOk);
    s.expect_solution(ft, 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtLuRandomSoftErrors, ::testing::Range(0, 16));

}  // namespace
}  // namespace abftecc::abft

// FT-HPL: solver correctness, fail-stop loss + recovery at every stage of
// the factorization, checksum maintenance through pivoting, soft-error
// detection over the trailing matrix.
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
    ae = Matrix(n + h, n + 1);
    uc = Matrix(h, n + 1);
  }
  FtHpl::Buffers buffers() { return {ae.view(), uc.view()}; }
  void expect_solution(FtHpl& ft, double tol = 1e-7) {
    std::vector<double> x(n);
    ft.solve(x);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_NEAR(x[i], sys.x_true[i], tol) << i;
  }
};

TEST(FtHpl, CleanFactorizationSolvesSystem) {
  Fix s(128, 4, 1);
  FtHpl ft(s.be, s.sys.a.view(), s.sys.b, 4, s.buffers(), {}, nullptr, 32);
  EXPECT_EQ(ft.factor(s.be), FtStatus::kOk);
  s.expect_solution(ft);
}

class FtHplShapes
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FtHplShapes, SolvesAcrossDimsAndProcessCounts) {
  const auto [n, procs] = GetParam();
  Fix s(n, procs, 40 + n + procs);
  FtHpl ft(s.be, s.sys.a.view(), s.sys.b, procs, s.buffers(), {}, nullptr, 32);
  EXPECT_EQ(ft.factor(s.be), FtStatus::kOk);
  s.expect_solution(ft);
}

INSTANTIATE_TEST_SUITE_P(Shapes, FtHplShapes,
                         ::testing::Values(std::tuple{64, 2}, std::tuple{64, 4},
                                           std::tuple{96, 4}, std::tuple{128, 8},
                                           std::tuple{160, 5}));

class FtHplFailurePoint : public ::testing::TestWithParam<int> {};

TEST_P(FtHplFailurePoint, FailStopRecoveredAtAnyBoundary) {
  // Lose process 1 after `frac`% of the factorization; recovery must
  // restore the exact state and the solve must match.
  const int percent = GetParam();
  const std::size_t n = 128;
  Fix s(n, 4, 2);
  FtHpl ft(s.be, s.sys.a.view(), s.sys.b, 4, s.buffers(), {}, nullptr, 32);
  const std::size_t k_fail = n * percent / 100 / 32 * 32;
  ASSERT_EQ(ft.factor_steps(k_fail, s.be), FtStatus::kOk);
  ft.simulate_failstop(1);
  EXPECT_EQ(ft.recover_process(1, s.be), FtStatus::kCorrectedErrors);
  ASSERT_EQ(ft.factor_steps(n, s.be), FtStatus::kOk);
  s.expect_solution(ft, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Boundaries, FtHplFailurePoint,
                         ::testing::Values(0, 25, 50, 75, 100));

TEST(FtHpl, EveryProcessRecoverable) {
  const std::size_t n = 96;
  for (std::size_t victim = 0; victim < 4; ++victim) {
    Fix s(n, 4, 3 + victim);
    FtHpl ft(s.be, s.sys.a.view(), s.sys.b, 4, s.buffers(), {}, nullptr, 32);
    ASSERT_EQ(ft.factor_steps(64, s.be), FtStatus::kOk);
    ft.simulate_failstop(victim);
    EXPECT_EQ(ft.recover_process(victim, s.be), FtStatus::kCorrectedErrors);
    ASSERT_EQ(ft.factor_steps(n, s.be), FtStatus::kOk);
    s.expect_solution(ft, 1e-6);
  }
}

TEST(FtHpl, RecoveryRestoresExactRowContents) {
  const std::size_t n = 96;
  Fix s(n, 4, 5);
  FtHpl ft(s.be, s.sys.a.view(), s.sys.b, 4, s.buffers(), {}, nullptr, 32);
  ASSERT_EQ(ft.factor_steps(32, s.be), FtStatus::kOk);
  Matrix snapshot = s.ae;
  ft.simulate_failstop(2);
  ASSERT_EQ(ft.recover_process(2, s.be), FtStatus::kCorrectedErrors);
  // Frozen rows restored exactly; active rows restored from column 32 on.
  for (std::size_t o = 2 * 24; o < 3 * 24; ++o) {
    const std::size_t pos = ft.position_of_original_row(o);
    const std::size_t j0 = pos < 32 ? 0 : 32;
    for (std::size_t j = j0; j < n + 1; ++j)
      ASSERT_NEAR(s.ae(pos, j), snapshot(pos, j), 1e-8) << pos << "," << j;
  }
}

TEST(FtHpl, SoftErrorInTrailingMatrixDetected) {
  const std::size_t n = 96;
  Fix s(n, 4, 6);
  FtHpl ft(s.be, s.sys.a.view(), s.sys.b, 4, s.buffers(), {}, nullptr, 32);
  ASSERT_EQ(ft.factor_steps(32, s.be), FtStatus::kOk);
  s.ae(70, 80) += 50.0;  // active region corruption
  EXPECT_EQ(ft.verify_active(s.be), FtStatus::kUncorrectable);
  EXPECT_GE(ft.stats().errors_detected, 1u);
}

TEST(FtHpl, CleanTrailingMatrixVerifies) {
  Fix s(96, 4, 7);
  FtHpl ft(s.be, s.sys.a.view(), s.sys.b, 4, s.buffers(), {}, nullptr, 32);
  ASSERT_EQ(ft.factor_steps(64, s.be), FtStatus::kOk);
  EXPECT_EQ(ft.verify_active(s.be), FtStatus::kOk);
}

TEST(FtHpl, SingularMatrixReported) {
  const std::size_t n = 32;
  Fix s(n, 4, 8);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) s.sys.a(i, j) = 0.0;
  FtHpl ft(s.be, s.sys.a.view(), s.sys.b, 4, s.buffers(), {}, nullptr, 16);
  EXPECT_EQ(ft.factor(s.be), FtStatus::kNumericalFailure);
}

TEST(FtHpl, RequiresDivisibleDimensions) {
  Fix s(96, 4, 9);
  EXPECT_THROW(FtHpl(s.be, s.sys.a.view(), s.sys.b, 5,
                     {s.ae.view(), s.uc.view()}),
               ContractViolation);
}

TEST(FtHpl, PivotTrackingConsistent) {
  const std::size_t n = 64;
  Fix s(n, 4, 10);
  FtHpl ft(s.be, s.sys.a.view(), s.sys.b, 4, s.buffers(), {}, nullptr, 16);
  ASSERT_EQ(ft.factor(s.be), FtStatus::kOk);
  // position_of_original_row is a permutation of [0, n).
  std::vector<bool> seen(n, false);
  for (std::size_t o = 0; o < n; ++o) {
    const std::size_t pos = ft.position_of_original_row(o);
    ASSERT_LT(pos, n);
    ASSERT_FALSE(seen[pos]);
    seen[pos] = true;
  }
}

}  // namespace
}  // namespace abftecc::abft

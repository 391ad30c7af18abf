// Property-style randomized sweeps over the ABFT kernels: for many seeds
// and injection sites, detection + correction must restore the exact
// result (or the kernel must refuse with kUncorrectable -- never report a
// silently wrong answer).
#include <gtest/gtest.h>

#include "abft/ft_cg.hpp"
#include "abft/ft_cholesky.hpp"
#include "abft/ft_dgemm.hpp"
#include "abft/ft_hpl.hpp"
#include "common/rng.hpp"
#include "linalg/generate.hpp"

namespace abftecc::abft {
namespace {

// A tap that fires one additive corruption at a pseudo-random reference.
struct RandomCorruptTap {
  double* target;
  double delta;
  std::uint64_t* counter;
  std::uint64_t fire_at;
  void read(const void*, std::size_t = 8) { tick(); }
  void write(const void*, std::size_t = 8) { tick(); }
  void update(const void*, std::size_t = 8) { tick(); }
  void tick() {
    if (++*counter == fire_at) *target += delta;
  }
};

class DgemmRandomInjection : public ::testing::TestWithParam<int> {};

TEST_P(DgemmRandomInjection, NeverReturnsSilentlyWrongResult) {
  const int seed = GetParam();
  Rng rng(seed);
  const std::size_t n = 80;
  Matrix a = Matrix::random(n, n, rng), b = Matrix::random(n, n, rng);
  Matrix ac(n + 1, n), br(n, n + 1), cf(n + 1, n + 1);
  FtDgemm ft(a.view(), b.view(), {ac.view(), br.view(), cf.view()});

  // Random target inside the payload, random magnitude, random firing point.
  const std::size_t i = rng.below(n), j = rng.below(n);
  const double delta = rng.uniform(0.5, 100.0) * (rng.below(2) ? 1 : -1);
  std::uint64_t counter = 0;
  TapBackend be(RandomCorruptTap{&cf(i, j), delta, &counter,
                                 200000 + rng.below(1500000)});
  const FtStatus st = ft.run(be);
  ASSERT_NE(st, FtStatus::kNumericalFailure);
  if (st != FtStatus::kUncorrectable) {
    Matrix ref(n, n);
    linalg::gemm(1.0, a.view(), b.view(), 0.0, ref.view());
    EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-6)
        << "seed " << seed << " target (" << i << "," << j << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DgemmRandomInjection,
                         ::testing::Range(0, 24));

class CholeskyRandomInjection : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyRandomInjection, CorrectsOrRefuses) {
  const int seed = GetParam();
  Rng rng(1000 + seed);
  const std::size_t n = 96;
  Matrix a = Matrix::random_spd(n, rng);
  Matrix orig = a;
  std::vector<double> sum(n), weighted(n);
  FtCholesky ft({a.view(), sum, weighted}, {}, nullptr, 32);

  // Target strictly below the diagonal so it lies in the checksummed
  // triangle for at least part of the run.
  const std::size_t j = rng.below(n - 1);
  const std::size_t i = j + 1 + rng.below(n - j - 1);
  std::uint64_t counter = 0;
  TapBackend be(RandomCorruptTap{&a(i, j), rng.uniform(10.0, 200.0), &counter,
                                 50000 + rng.below(400000)});
  const FtStatus st = ft.run(be);
  if (st == FtStatus::kOk || st == FtStatus::kCorrectedErrors) {
    for (std::size_t jj = 0; jj < n; ++jj)
      for (std::size_t ii = jj; ii < n; ++ii) {
        double s = 0.0;
        for (std::size_t k = 0; k <= jj; ++k) s += a(ii, k) * a(jj, k);
        ASSERT_NEAR(s, orig(ii, jj), 1e-5)
            << "seed " << seed << " at (" << ii << "," << jj << ")";
      }
  }
  // kUncorrectable and kNumericalFailure are acceptable refusals: the
  // corruption may strike after a column left the protected window or
  // poison a pivot.
}

INSTANTIATE_TEST_SUITE_P(Seeds, CholeskyRandomInjection,
                         ::testing::Range(0, 16));

class CgRandomInjection : public ::testing::TestWithParam<int> {};

TEST_P(CgRandomInjection, ConvergesToTrueSolutionDespiteFault) {
  const int seed = GetParam();
  Rng rng(2000 + seed);
  const std::size_t n = 128;
  linalg::LinearSystem sys = linalg::make_spd_system(n, rng);
  std::vector<double> b = sys.b, x(n, 0.0), r(n), z(n), p(n), q(n), w(4 * n);
  linalg::CgOptions copt;
  copt.max_iterations = 6 * n;
  copt.tolerance = 1e-11;
  FtCg ft(sys.a.view(), b, {x, r, z, p, q, w}, copt);

  std::vector<std::span<double>> targets{x, r, p, q, b};
  auto& victim = targets[rng.below(targets.size())];
  std::uint64_t counter = 0;
  TapBackend be(RandomCorruptTap{
      &victim[rng.below(n)], rng.uniform(1e3, 1e7) * (rng.below(2) ? 1 : -1),
      &counter, 300000 + rng.below(1200000)});
  const FtCgResult res = ft.run(be);
  ASSERT_TRUE(res.cg.converged) << "seed " << seed;
  double err = 0;
  for (std::size_t ii = 0; ii < n; ++ii)
    err = std::max(err, std::abs(x[ii] - sys.x_true[ii]));
  EXPECT_LT(err, 1e-6) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CgRandomInjection, ::testing::Range(0, 20));

class HplRandomFailure : public ::testing::TestWithParam<int> {};

TEST_P(HplRandomFailure, AnyProcessAnyBoundaryRecovers) {
  const int seed = GetParam();
  Rng rng(3000 + seed);
  const std::size_t n = 128, procs = 4;
  linalg::LinearSystem sys = linalg::make_general_system(n, rng);
  Matrix ae(n + n / procs, n + 1), uc(n / procs, n + 1);
  NativeBackend be;
  FtHpl ft(be, sys.a.view(), sys.b, procs, {ae.view(), uc.view()}, {},
           nullptr, 32);
  const std::size_t boundary = 32 * rng.below(n / 32 + 1);
  const std::size_t victim = rng.below(procs);
  ASSERT_EQ(ft.factor_steps(boundary, be), FtStatus::kOk);
  ft.simulate_failstop(victim);
  ASSERT_EQ(ft.recover_process(victim, be), FtStatus::kCorrectedErrors);
  ASSERT_EQ(ft.factor_steps(n, be), FtStatus::kOk);
  std::vector<double> x(n);
  ft.solve(x);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_NEAR(x[i], sys.x_true[i], 1e-6) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, HplRandomFailure, ::testing::Range(0, 16));

}  // namespace
}  // namespace abftecc::abft

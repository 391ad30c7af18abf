// Unit + property tests for the linalg substrate: BLAS kernels against
// naive references, factorizations against reconstruction, CG convergence.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/cg.hpp"
#include "linalg/factor.hpp"
#include "linalg/gemm_native.hpp"
#include "linalg/generate.hpp"

namespace abftecc::linalg {
namespace {

Matrix naive_gemm(ConstMatrixView a, ConstMatrixView b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  return c;
}

TEST(Blas, DotAxpyScalCopy) {
  std::vector<double> x = {1, 2, 3}, y = {4, 5, 6};
  EXPECT_DOUBLE_EQ(dot<>(x, y), 32.0);
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  scal(0.5, std::span<double>(y));
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  std::vector<double> z(3);
  copy<>(y, z);
  EXPECT_EQ(z, y);
}

TEST(Blas, Nrm2MatchesDefinitionAndResistsOverflow) {
  std::vector<double> x = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(nrm2<>(x), 5.0);
  std::vector<double> big = {1e200, 1e200};
  EXPECT_NEAR(nrm2<>(big), std::sqrt(2.0) * 1e200, 1e186);
}

TEST(Blas, IamaxFindsLargestMagnitude) {
  std::vector<double> x = {1.0, -9.0, 3.0};
  EXPECT_EQ(iamax<>(x), 1u);
}

TEST(Blas, GemvAgainstNaive) {
  Rng rng(11);
  Matrix a = Matrix::random(7, 5, rng);
  std::vector<double> x(5), y(7, 1.0), y_ref(7, 1.0);
  for (auto& v : x) v = rng.uniform(-1, 1);
  gemv(2.0, a.view(), x, 0.5, y);
  for (std::size_t i = 0; i < 7; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 5; ++j) s += a(i, j) * x[j];
    y_ref[i] = 2.0 * s + 0.5 * 1.0;
  }
  for (std::size_t i = 0; i < 7; ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-12);
}

TEST(Blas, GemvTransposedAgainstNaive) {
  Rng rng(12);
  Matrix a = Matrix::random(6, 4, rng);
  std::vector<double> x(6), y(4, 0.0);
  for (auto& v : x) v = rng.uniform(-1, 1);
  gemv_t(1.0, a.view(), x, 0.0, y);
  for (std::size_t j = 0; j < 4; ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < 6; ++i) s += a(i, j) * x[i];
    EXPECT_NEAR(y[j], s, 1e-12);
  }
}

TEST(Blas, GerRankOneUpdate) {
  Matrix a(3, 2);
  std::vector<double> x = {1, 2, 3}, y = {4, 5};
  ger(1.0, x, y, a.view());
  EXPECT_DOUBLE_EQ(a(2, 1), 15.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 4.0);
}

class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, MatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(100 + m + n * 3 + k * 7);
  Matrix a = Matrix::random(m, k, rng);
  Matrix b = Matrix::random(k, n, rng);
  Matrix c(m, n);
  gemm(1.0, a.view(), b.view(), 0.0, c.view());
  Matrix ref = naive_gemm(a.view(), b.view());
  EXPECT_LT(max_abs_diff(c.view(), ref.view()), 1e-10 * k);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSizes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 5, 7},
                      std::tuple{64, 64, 64}, std::tuple{65, 63, 64},
                      std::tuple{128, 70, 129}, std::tuple{17, 130, 33}));

TEST(Gemm, AlphaBetaScaling) {
  Rng rng(5);
  Matrix a = Matrix::random(8, 8, rng), b = Matrix::random(8, 8, rng);
  Matrix c = Matrix::random(8, 8, rng);
  Matrix expect = naive_gemm(a.view(), b.view());
  for (std::size_t j = 0; j < 8; ++j)
    for (std::size_t i = 0; i < 8; ++i)
      expect(i, j) = 2.0 * expect(i, j) + 3.0 * c(i, j);
  gemm(2.0, a.view(), b.view(), 3.0, c.view());
  EXPECT_LT(max_abs_diff(c.view(), expect.view()), 1e-10);
}

// --- gemm_native: packed AVX2 path (when the host dispatches it) and the
// scalar fallback, both against a plain triple loop that shares no code with
// either. Shapes straddle the 8x6 register tile, the 96-row A block, the
// 256-deep k block and the 512-column B block.

/// C <- alpha * A B + beta * C, element by element; beta == 0 never reads C.
void naive_gemm_update(double alpha, ConstMatrixView a, ConstMatrixView b,
                       double beta, MatrixView c) {
  for (std::size_t j = 0; j < c.cols(); ++j)
    for (std::size_t i = 0; i < c.rows(); ++i) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = beta == 0.0 ? alpha * s : alpha * s + beta * c(i, j);
    }
}

using GemmFn = void (*)(double, ConstMatrixView, ConstMatrixView, double,
                        MatrixView);

class GemmNativeShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmNativeShapes, MatchesNaiveOnStridedViews) {
  const auto [m, n, k] = GetParam();
  Rng rng(7 + m * 131 + n * 17 + k);
  // Every operand is an interior block of a larger matrix, so ld > rows and
  // a write outside the block shows up in the border.
  const Matrix abig = Matrix::random(m + 3, k + 2, rng);
  const Matrix bbig = Matrix::random(k + 5, n + 1, rng);
  const Matrix cinit = Matrix::random(m + 4, n + 3, rng);
  const ConstMatrixView a = abig.view().block(2, 1, m, k);
  const ConstMatrixView b = bbig.view().block(4, 0, k, n);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [name, fn] : {std::pair<const char*, GemmFn>{
                                     "gemm_native", &gemm_native},
                                 {"scalar", &detail::gemm_native_scalar}}) {
    for (const double alpha : {1.0, -1.0, 0.5}) {
      for (const double beta : {0.0, 0.5, 1.0}) {
        Matrix got = cinit, want = cinit;
        // BLAS semantics: with beta == 0 whatever C held is never read.
        if (beta == 0.0) got.view().block(1, 2, m, n).fill(nan);
        fn(alpha, a, b, beta, got.view().block(1, 2, m, n));
        naive_gemm_update(alpha, a, b, beta, want.view().block(1, 2, m, n));
        double err = 0.0;
        for (std::size_t j = 0; j < got.cols(); ++j)
          for (std::size_t i = 0; i < got.rows(); ++i) {
            ASSERT_TRUE(std::isfinite(got(i, j)))
                << name << " alpha=" << alpha << " beta=" << beta << " at ("
                << i << ", " << j << ")";
            err = std::max(err, std::abs(got(i, j) - want(i, j)));
          }
        EXPECT_LT(err, 1e-12 * (k + 1))
            << name << " alpha=" << alpha << " beta=" << beta;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmNativeShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 13, 7},
                      std::tuple{11, 1, 9}, std::tuple{5, 7, 1},
                      std::tuple{8, 6, 256}, std::tuple{13, 11, 29},
                      std::tuple{61, 47, 83},       // no tile multiples
                      std::tuple{17, 19, 600},      // k > kc, twice over
                      std::tuple{203, 14, 21},      // m > mc
                      std::tuple{9, 1030, 5},       // n > nc
                      std::tuple{100, 520, 270}));  // all three blocked

TEST(GemmNative, AlphaZeroScalesCWithoutReadingAB) {
  // BLAS: alpha == 0 leaves A and B unread, so a NaN there cannot leak in.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix a(9, 7), b(7, 10);
  a.view().fill(nan);
  b.view().fill(nan);
  Rng rng(3);
  for (const GemmFn fn : {GemmFn{&gemm_native}, &detail::gemm_native_scalar}) {
    Matrix c = Matrix::random(9, 10, rng);
    const Matrix c0 = c;
    fn(0.0, a.view(), b.view(), 0.5, c.view());
    for (std::size_t j = 0; j < 10; ++j)
      for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(c(i, j), 0.5 * c0(i, j));
    fn(0.0, a.view(), b.view(), 0.0, c.view());
    for (std::size_t j = 0; j < 10; ++j)
      for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(c(i, j), 0.0);
  }
}

TEST(GemmNative, FmaPeakIsPositive) {
  EXPECT_GT(native_fma_peak_gflops(), 0.0);
}

TEST(Trsm, RightLowerTransSolves) {
  Rng rng(21);
  Matrix l = Matrix::random(6, 6, rng);
  for (std::size_t i = 0; i < 6; ++i) {
    l(i, i) = 3.0 + rng.uniform();
    for (std::size_t j = i + 1; j < 6; ++j) l(i, j) = 0.0;
  }
  Matrix x_true = Matrix::random(4, 6, rng);
  // B = X * L^T
  Matrix lt(6, 6);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j) lt(i, j) = l(j, i);
  Matrix b = naive_gemm(x_true.view(), lt.view());
  trsm_right_lower_trans(l.view(), b.view());
  EXPECT_LT(max_abs_diff(b.view(), x_true.view()), 1e-9);
}

TEST(Trsm, LeftLowerUnitSolves) {
  Rng rng(22);
  Matrix l = Matrix::random(5, 5, rng);
  for (std::size_t i = 0; i < 5; ++i) {
    l(i, i) = 1.0;
    for (std::size_t j = i + 1; j < 5; ++j) l(i, j) = 0.0;
  }
  Matrix x_true = Matrix::random(5, 3, rng);
  Matrix b = naive_gemm(l.view(), x_true.view());
  trsm_left_lower_unit(l.view(), b.view());
  EXPECT_LT(max_abs_diff(b.view(), x_true.view()), 1e-10);
}

TEST(Syrk, LowerSubMatchesGemm) {
  Rng rng(23);
  Matrix a = Matrix::random(7, 4, rng);
  Matrix c = Matrix::random_spd(7, rng);
  Matrix c2 = c;
  syrk_lower_sub(a.view(), c.view());
  // Reference: full C2 -= A A^T, compare lower triangles.
  Matrix at(4, 7);
  for (std::size_t i = 0; i < 7; ++i)
    for (std::size_t j = 0; j < 4; ++j) at(j, i) = a(i, j);
  Matrix aat = naive_gemm(a.view(), at.view());
  for (std::size_t j = 0; j < 7; ++j)
    for (std::size_t i = j; i < 7; ++i)
      EXPECT_NEAR(c(i, j), c2(i, j) - aat(i, j), 1e-10);
}

TEST(Trsv, LowerAndUpperAndLowerTrans) {
  Rng rng(24);
  Matrix l = Matrix::random(6, 6, rng);
  for (std::size_t i = 0; i < 6; ++i) l(i, i) = 4.0 + rng.uniform();
  std::vector<double> x_true(6), b(6);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  // lower: L x = b
  for (std::size_t i = 0; i < 6; ++i) {
    double s = 0.0;
    for (std::size_t k = 0; k <= i; ++k) s += l(i, k) * x_true[k];
    b[i] = s;
  }
  auto x = b;
  trsv_lower(l.view(), x);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
  // lower-transposed: L^T x = b
  for (std::size_t i = 0; i < 6; ++i) {
    double s = 0.0;
    for (std::size_t k = i; k < 6; ++k) s += l(k, i) * x_true[k];
    b[i] = s;
  }
  x = b;
  trsv_lower_trans(l.view(), x);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

class PotrfSizes : public ::testing::TestWithParam<int> {};

TEST_P(PotrfSizes, ReconstructsInput) {
  const int n = GetParam();
  Rng rng(31 + n);
  Matrix a = Matrix::random_spd(n, rng);
  Matrix work = a;
  ASSERT_EQ(potrf(work.view(), 16), FactorStatus::kOk);
  // Reconstruct L L^T and compare lower triangle against A.
  for (std::size_t j = 0; j < static_cast<std::size_t>(n); ++j)
    for (std::size_t i = j; i < static_cast<std::size_t>(n); ++i) {
      double s = 0.0;
      for (std::size_t k = 0; k <= j; ++k) s += work(i, k) * work(j, k);
      EXPECT_NEAR(s, a(i, j), 1e-8 * n) << i << "," << j;
    }
}

INSTANTIATE_TEST_SUITE_P(Dims, PotrfSizes, ::testing::Values(1, 4, 16, 33, 64, 97));

TEST(Potrf, RejectsNonPositiveDefinite) {
  Matrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = -2.0;
  a(2, 2) = 1.0;
  EXPECT_EQ(potrf(a.view()), FactorStatus::kNotPositiveDefinite);
}

class GetrfSizes : public ::testing::TestWithParam<int> {};

TEST_P(GetrfSizes, SolvesSystem) {
  const int n = GetParam();
  Rng rng(41 + n);
  LinearSystem sys = make_general_system(n, rng);
  Matrix lu = sys.a;
  std::vector<std::size_t> piv;
  ASSERT_EQ(getrf(lu.view(), piv, 16), FactorStatus::kOk);
  auto x = sys.b;
  lu_solve(lu.view(), piv, x);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], sys.x_true[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Dims, GetrfSizes, ::testing::Values(1, 5, 16, 40, 64, 100));

TEST(Getrf, DetectsExactSingularity) {
  Matrix a(3, 3);  // all zeros
  std::vector<std::size_t> piv;
  EXPECT_EQ(getrf(a.view(), piv), FactorStatus::kSingular);
}

TEST(Getrf, PivotingHandlesZeroLeadingElement) {
  Matrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  std::vector<std::size_t> piv;
  ASSERT_EQ(getrf(a.view(), piv), FactorStatus::kOk);
  std::vector<double> x = {2.0, 3.0};  // solve A x = b
  lu_solve(a.view(), piv, x);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

class CgSizes : public ::testing::TestWithParam<int> {};

TEST_P(CgSizes, ConvergesToTrueSolution) {
  const int n = GetParam();
  Rng rng(51 + n);
  LinearSystem sys = make_spd_system(n, rng);
  std::vector<double> x(n, 0.0);
  CgOptions opt;
  opt.max_iterations = 4 * static_cast<std::size_t>(n);
  opt.tolerance = 1e-12;
  const CgResult res = pcg_solve(sys.a.view(), sys.b, x, opt);
  EXPECT_TRUE(res.converged);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], sys.x_true[i], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Dims, CgSizes, ::testing::Values(2, 8, 32, 100));

TEST(Cg, ZeroRhsConvergesImmediately) {
  Rng rng(61);
  Matrix a = Matrix::random_spd(8, rng);
  std::vector<double> b(8, 0.0), x(8, 0.0);
  const CgResult res = pcg_solve(a.view(), b, x);
  EXPECT_TRUE(res.converged);
  for (const double v : x) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(JacobiPreconditioner, InvertsDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(1, 1) = 4.0;
  std::vector<double> inv_diag(2);
  JacobiPreconditioner m(a.view(), inv_diag);
  std::vector<double> r = {2.0, 4.0}, z(2);
  m.apply(r, z);
  EXPECT_DOUBLE_EQ(z[0], 1.0);
  EXPECT_DOUBLE_EQ(z[1], 1.0);
}

TEST(Generate, SpdSystemSatisfiesAxEqualsB) {
  Rng rng(71);
  LinearSystem sys = make_spd_system(20, rng);
  std::vector<double> ax(20, 0.0);
  gemv(1.0, sys.a.view(), sys.x_true, 0.0, ax);
  for (int i = 0; i < 20; ++i) EXPECT_NEAR(ax[i], sys.b[i], 1e-10);
}

}  // namespace
}  // namespace abftecc::linalg

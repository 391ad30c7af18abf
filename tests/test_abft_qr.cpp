// Plain Householder QR substrate + FT-QR: factorization correctness,
// checksum-column invariance under reflectors, error correction in R and
// the trailing matrix, tall least-squares shapes.
#include <gtest/gtest.h>

#include "abft/ft_qr.hpp"
#include "common/rng.hpp"
#include "linalg/generate.hpp"
#include "linalg/qr.hpp"

namespace abftecc {
namespace {

using abft::FtQr;
using abft::FtStatus;

// --- plain QR substrate -------------------------------------------------------

TEST(Geqrf, ReconstructsViaQtA) {
  Rng rng(1);
  Matrix a = Matrix::random(12, 8, rng);
  Matrix work = a;
  std::vector<double> tau(8);
  linalg::geqrf(work.view(), tau);
  // Q^T A must equal [R; 0]: apply Q^T to each original column.
  for (std::size_t j = 0; j < 8; ++j) {
    std::vector<double> col(12);
    for (std::size_t i = 0; i < 12; ++i) col[i] = a(i, j);
    linalg::apply_qt(work.view(), tau, col);
    for (std::size_t i = 0; i < 12; ++i) {
      const double expect = i <= j ? work(i, j) : 0.0;
      EXPECT_NEAR(col[i], expect, 1e-9) << i << "," << j;
    }
  }
}

TEST(Geqrf, QtPreservesNorms) {
  Rng rng(2);
  Matrix a = Matrix::random(16, 16, rng);
  Matrix work = a;
  std::vector<double> tau(16);
  linalg::geqrf(work.view(), tau);
  std::vector<double> y(16);
  for (auto& v : y) v = rng.uniform(-1, 1);
  const double before = linalg::nrm2<>(y);
  linalg::apply_qt(work.view(), tau, y);
  EXPECT_NEAR(linalg::nrm2<>(y), before, 1e-10);  // orthogonality
}

class QrSolveSizes : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(QrSolveSizes, SolvesSquareAndLeastSquares) {
  const auto [m, n] = GetParam();
  Rng rng(10 + m + n);
  Matrix a = Matrix::random(m, n, rng);
  for (int i = 0; i < n; ++i) a(i, i) += n;  // well-conditioned
  std::vector<double> x_true(n), b(m, 0.0);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) b[i] += a(i, j) * x_true[j];
  Matrix work = a;
  std::vector<double> tau(n), x(n);
  linalg::geqrf(work.view(), tau);
  linalg::qr_solve(work.view(), tau, b, x);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrSolveSizes,
                         ::testing::Values(std::tuple{8, 8}, std::tuple{16, 16},
                                           std::tuple{24, 16},
                                           std::tuple{64, 40},
                                           std::tuple{100, 100}));

// --- FT-QR ---------------------------------------------------------------------

struct Fix {
  Matrix a, aw;
  std::vector<double> tau;
  std::size_t m, n;
  NativeBackend be;
  Fix(std::size_t m_, std::size_t n_, std::uint64_t seed) : m(m_), n(n_) {
    Rng rng(seed);
    a = Matrix::random(m, n, rng);
    for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
    aw = Matrix(m, n + 2);
    tau.assign(n, 0.0);
  }
  FtQr::Buffers buffers() { return {aw.view(), tau}; }
};

TEST(FtQrTest, CleanFactorSolvesSystem) {
  Fix s(96, 96, 1);
  FtQr ft(s.be, s.a.view(), s.buffers(), {}, nullptr, 32);
  EXPECT_EQ(ft.factor(s.be), FtStatus::kOk);
  Rng rng(2);
  std::vector<double> x_true(96), b(96, 0.0), x(96);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  for (std::size_t i = 0; i < 96; ++i)
    for (std::size_t j = 0; j < 96; ++j) b[i] += s.a(i, j) * x_true[j];
  ft.solve(b, x);
  for (std::size_t i = 0; i < 96; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(FtQrTest, ChecksumColumnsSurviveReflectorsExactly) {
  Fix s(64, 48, 3);
  FtQr ft(s.be, s.a.view(), s.buffers(), {}, nullptr, 16);
  ASSERT_EQ(ft.factor(s.be), FtStatus::kOk);
  // Final state: every frozen row's R entries sum to the checksum entries.
  for (std::size_t i = 0; i < 48; ++i) {
    double sum = 0.0, wsum = 0.0;
    for (std::size_t j = i; j < 48; ++j) {
      sum += s.aw(i, j);
      wsum += static_cast<double>(j + 1) * s.aw(i, j);
    }
    EXPECT_NEAR(sum, s.aw(i, 48), 1e-6) << i;
    EXPECT_NEAR(wsum, s.aw(i, 49), 1e-4) << i;
  }
}

TEST(FtQrTest, TrailingErrorCorrectedBetweenPanels) {
  struct CorruptingTap {
    double* target;
    std::uint64_t* counter;
    std::uint64_t fire_at;
    void read(const void*, std::size_t = 8) { tick(); }
    void write(const void*, std::size_t = 8) { tick(); }
    void update(const void*, std::size_t = 8) { tick(); }
    void tick() {
      if (++*counter == fire_at) *target += 200.0;
    }
  };
  Fix s(96, 96, 4);
  std::uint64_t counter = 0;
  TapBackend be(CorruptingTap{&s.aw(80, 70), &counter, 150000});
  FtQr ft(be, s.a.view(), s.buffers(), {}, nullptr, 32);
  const FtStatus st = ft.factor(be);
  EXPECT_EQ(st, FtStatus::kCorrectedErrors);
  EXPECT_GE(ft.stats().errors_corrected, 1u);
  // Solve still lands on the true solution.
  Rng rng(5);
  std::vector<double> x_true(96), b(96, 0.0), x(96);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  for (std::size_t i = 0; i < 96; ++i)
    for (std::size_t j = 0; j < 96; ++j) b[i] += s.a(i, j) * x_true[j];
  ft.solve(b, x);
  for (std::size_t i = 0; i < 96; ++i)
    EXPECT_NEAR(x[i], x_true[i], 1e-6);
}

TEST(FtQrTest, FrozenRErrorCorrectedToo) {
  Fix s(96, 96, 6);
  FtQr ft(s.be, s.a.view(), s.buffers(), {}, nullptr, 32);
  ASSERT_EQ(ft.factor(s.be), FtStatus::kOk);
  const double orig = s.aw(10, 50);
  s.aw(10, 50) += 77.0;  // R region, row 10 frozen long ago
  EXPECT_EQ(ft.verify_and_correct(s.be), FtStatus::kOk);
  EXPECT_GE(ft.stats().errors_corrected, 1u);
  EXPECT_NEAR(s.aw(10, 50), orig, 1e-8);
}

TEST(FtQrTest, ChecksumEntryCorruptionRefreshed) {
  Fix s(64, 64, 7);
  FtQr ft(s.be, s.a.view(), s.buffers(), {}, nullptr, 32);
  ASSERT_EQ(ft.factor(s.be), FtStatus::kOk);
  s.aw(20, 64) += 9.0;   // sum checksum entry
  s.aw(31, 65) -= 4.0;   // weighted checksum entry
  EXPECT_EQ(ft.verify_and_correct(s.be), FtStatus::kOk);
  EXPECT_GE(ft.stats().errors_corrected, 2u);
  // A second pass finds nothing.
  const auto corrected = ft.stats().errors_corrected;
  EXPECT_EQ(ft.verify_and_correct(s.be), FtStatus::kOk);
  EXPECT_EQ(ft.stats().errors_corrected, corrected);
}

TEST(FtQrTest, TwoErrorsSameRowRefused) {
  Fix s(64, 64, 8);
  FtQr ft(s.be, s.a.view(), s.buffers(), {}, nullptr, 32);
  ASSERT_EQ(ft.factor(s.be), FtStatus::kOk);
  s.aw(15, 30) += 5.0;
  s.aw(15, 50) += 7.0;
  EXPECT_EQ(ft.verify_and_correct(s.be), FtStatus::kUncorrectable);
}

TEST(FtQrTest, TallMatrixSupported) {
  Fix s(128, 64, 9);
  FtQr ft(s.be, s.a.view(), s.buffers(), {}, nullptr, 32);
  EXPECT_EQ(ft.factor(s.be), FtStatus::kOk);
}

class FtQrRandomInjection : public ::testing::TestWithParam<int> {};

TEST_P(FtQrRandomInjection, LiveRegionErrorsAtBoundariesAlwaysRepaired) {
  // FT-QR's contract: an error striking the checksummed LIVE region (R
  // rows' upper parts + the trailing block) is repaired at the next
  // verification. Errors consumed inside a panel produce a consistent QR
  // of corrupted data -- invisible to any invariant -- and errors in the
  // Householder-vector storage are outside the relation; both are out of
  // contract (see the class comment), so the sweep injects at block
  // boundaries into the live region.
  const int seed = GetParam();
  Rng rng(6000 + seed);
  Fix s(80, 80, 700 + seed);
  FtQr ft(s.be, s.a.view(), s.buffers(), {}, nullptr, 16);
  const std::size_t boundary = 16 * (1 + rng.below(4));
  ASSERT_EQ(ft.factor_steps(boundary, s.be), FtStatus::kOk);
  // Live region at this boundary: row i has columns [min(i, boundary), n).
  const std::size_t i = rng.below(80);
  const std::size_t j0 = std::min<std::size_t>(i, boundary);
  const std::size_t j = j0 + rng.below(80 - j0);
  s.aw(i, j) += rng.uniform(20.0, 400.0) * (rng.below(2) ? 1 : -1);
  ASSERT_EQ(ft.factor_steps(80, s.be), FtStatus::kOk);
  ASSERT_EQ(ft.verify_and_correct(s.be), FtStatus::kOk);
  EXPECT_GE(ft.stats().errors_corrected, 1u) << "seed " << seed;

  // Solve lands on the true solution of the ORIGINAL system.
  std::vector<double> x_true(80), b(80, 0.0), x(80);
  Rng rng2(1);
  for (auto& v : x_true) v = rng2.uniform(-1, 1);
  for (std::size_t r = 0; r < 80; ++r)
    for (std::size_t c = 0; c < 80; ++c) b[r] += s.a(r, c) * x_true[c];
  ft.solve(b, x);
  for (std::size_t r = 0; r < 80; ++r)
    ASSERT_NEAR(x[r], x_true[r], 1e-5) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtQrRandomInjection, ::testing::Range(0, 16));

}  // namespace
}  // namespace abftecc

// FT-DGEMM with dual checksum vectors: multi-error correction, including
// the grid patterns the single-checksum code must refuse.
#include <gtest/gtest.h>

#include "abft/ft_dgemm.hpp"
#include "abft/ft_dgemm_dual.hpp"
#include "common/rng.hpp"
#include "linalg/blas.hpp"

namespace abftecc::abft {
namespace {

struct Fix {
  Matrix a, b, ac, br, cf;
  NativeBackend be;
  Fix(std::size_t m, std::size_t n, std::size_t k, std::uint64_t seed)
      : a(m, k), b(k, n), ac(m + 2, k), br(k, n + 2), cf(m + 2, n + 2) {
    Rng rng(seed);
    a = Matrix::random(m, k, rng);
    b = Matrix::random(k, n, rng);
  }
  FtDgemmDual::Buffers buffers() { return {ac.view(), br.view(), cf.view()}; }
  Matrix reference() {
    Matrix c(a.rows(), b.cols());
    linalg::gemm(1.0, a.view(), b.view(), 0.0, c.view());
    return c;
  }
};

TEST(FtDgemmDual, CleanRunMatchesPlainGemm) {
  Fix s(72, 56, 88, 1);
  FtDgemmDual ft(s.a.view(), s.b.view(), s.buffers());
  EXPECT_EQ(ft.run(s.be), FtStatus::kOk);
  Matrix ref = s.reference();
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-9);
}

TEST(FtDgemmDual, DualChecksumInvariantHolds) {
  Fix s(64, 64, 64, 2);
  FtDgemmDual ft(s.a.view(), s.b.view(), s.buffers());
  ASSERT_EQ(ft.run(s.be), FtStatus::kOk);
  for (std::size_t j = 0; j < 64; ++j) {
    double sum = 0.0, wsum = 0.0;
    for (std::size_t i = 0; i < 64; ++i) {
      sum += s.cf(i, j);
      wsum += static_cast<double>(i + 1) * s.cf(i, j);
    }
    EXPECT_NEAR(sum, s.cf(64, j), 1e-7);
    EXPECT_NEAR(wsum, s.cf(65, j), 1e-5);
  }
}

TEST(FtDgemmDual, SingleErrorLocatedByColumnAlone) {
  Fix s(64, 64, 64, 3);
  FtDgemmDual ft(s.a.view(), s.b.view(), s.buffers());
  ASSERT_EQ(ft.run(s.be), FtStatus::kOk);
  Matrix ref = s.reference();
  s.cf(22, 41) -= 13.5;
  EXPECT_EQ(ft.verify_and_correct(s.be), FtStatus::kCorrectedErrors);
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-8);
}

TEST(FtDgemmDual, EqualMagnitudeGridCorrected) {
  // The pattern the single-checksum FtDgemm reports uncorrectable
  // (see FtDgemm.AmbiguousGridPatternReportedUncorrectable).
  Fix s(64, 64, 64, 4);
  FtDgemmDual ft(s.a.view(), s.b.view(), s.buffers());
  ASSERT_EQ(ft.run(s.be), FtStatus::kOk);
  Matrix ref = s.reference();
  s.cf(10, 20) += 3.0;
  s.cf(10, 30) += 3.0;
  s.cf(40, 20) += 3.0;
  s.cf(40, 30) += 3.0;
  EXPECT_EQ(ft.verify_and_correct(s.be), FtStatus::kCorrectedErrors);
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-8);
  EXPECT_GE(ft.stats().errors_corrected, 4u);
}

TEST(FtDgemmDual, TwoErrorsSameColumnSolvedExactly) {
  Fix s(64, 64, 64, 5);
  FtDgemmDual ft(s.a.view(), s.b.view(), s.buffers());
  ASSERT_EQ(ft.run(s.be), FtStatus::kOk);
  Matrix ref = s.reference();
  s.cf(7, 15) += 2.5;
  s.cf(51, 15) -= 8.0;
  EXPECT_EQ(ft.verify_and_correct(s.be), FtStatus::kCorrectedErrors);
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-8);
}

TEST(FtDgemmDual, CorruptedChecksumEntriesRefreshed) {
  Fix s(64, 64, 64, 6);
  FtDgemmDual ft(s.a.view(), s.b.view(), s.buffers());
  ASSERT_EQ(ft.run(s.be), FtStatus::kOk);
  s.cf(64, 12) += 5.0;   // sum checksum row
  s.cf(65, 33) -= 2.0;   // weighted checksum row
  EXPECT_EQ(ft.verify_and_correct(s.be), FtStatus::kCorrectedErrors);
  EXPECT_EQ(ft.verify_and_correct(s.be), FtStatus::kOk);  // now clean
}

TEST(FtDgemmDual, ThreeRowGridStillRefused) {
  // 3 bad rows x bad columns exceeds the 2-unknown solver: must refuse,
  // never guess.
  Fix s(64, 64, 64, 7);
  FtDgemmDual ft(s.a.view(), s.b.view(), s.buffers());
  ASSERT_EQ(ft.run(s.be), FtStatus::kOk);
  for (std::size_t i : {5u, 25u, 45u})
    for (std::size_t j : {10u, 30u}) s.cf(i, j) += 4.0;
  EXPECT_EQ(ft.verify_and_correct(s.be), FtStatus::kUncorrectable);
}

TEST(FtDgemmDual, SingleChecksumPeerRefusesWhatDualCorrects) {
  // Side-by-side: the same grid pattern on both implementations.
  Rng rng(8);
  const std::size_t n = 64;
  Matrix a = Matrix::random(n, n, rng), b = Matrix::random(n, n, rng);
  NativeBackend be;

  Matrix ac1(n + 1, n), br1(n, n + 1), cf1(n + 1, n + 1);
  FtDgemm single(a.view(), b.view(), {ac1.view(), br1.view(), cf1.view()});
  ASSERT_EQ(single.run(be), FtStatus::kOk);

  Matrix ac2(n + 2, n), br2(n, n + 2), cf2(n + 2, n + 2);
  FtDgemmDual dual(a.view(), b.view(), {ac2.view(), br2.view(), cf2.view()});
  ASSERT_EQ(dual.run(be), FtStatus::kOk);

  for (auto* cf : {&cf1, &cf2}) {
    (*cf)(3, 9) += 7.0;
    (*cf)(3, 48) += 7.0;
    (*cf)(33, 9) += 7.0;
    (*cf)(33, 48) += 7.0;
  }
  EXPECT_EQ(single.verify_and_correct(be), FtStatus::kUncorrectable);
  EXPECT_EQ(dual.verify_and_correct(be), FtStatus::kCorrectedErrors);
}

class DualRandomPairs : public ::testing::TestWithParam<int> {};

TEST_P(DualRandomPairs, RandomTwoErrorColumnsAlwaysRepaired) {
  const int seed = GetParam();
  Rng rng(100 + seed);
  Fix s(72, 72, 72, 200 + seed);
  FtDgemmDual ft(s.a.view(), s.b.view(), s.buffers());
  ASSERT_EQ(ft.run(s.be), FtStatus::kOk);
  Matrix ref = s.reference();
  const std::size_t j = rng.below(72);
  const std::size_t i1 = rng.below(36), i2 = 36 + rng.below(36);
  s.cf(i1, j) += rng.uniform(1.0, 50.0);
  s.cf(i2, j) -= rng.uniform(1.0, 50.0);
  EXPECT_EQ(ft.verify_and_correct(s.be), FtStatus::kCorrectedErrors);
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-7) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualRandomPairs, ::testing::Range(0, 12));

}  // namespace
}  // namespace abftecc::abft

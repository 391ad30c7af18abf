// FT-Cholesky: factorization correctness, trailing-matrix error detection,
// location and correction through the maintained sum/weighted checksums.
#include <gtest/gtest.h>

#include "abft/ft_cholesky.hpp"
#include "common/rng.hpp"
#include "linalg/factor.hpp"

namespace abftecc::abft {
namespace {

struct Fix {
  Matrix a;
  std::vector<double> sum, weighted;
  NativeBackend be;
  explicit Fix(std::size_t n, std::uint64_t seed)
      : a(n, n), sum(n), weighted(n) {
    Rng rng(seed);
    a = Matrix::random_spd(n, rng);
  }
  FtCholesky::Buffers buffers() { return {a.view(), sum, weighted}; }
};

void expect_valid_factor(ConstMatrixView l, ConstMatrixView a_orig,
                         double tol) {
  const std::size_t n = a_orig.rows();
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j; i < n; ++i) {
      double s = 0.0;
      for (std::size_t k = 0; k <= j; ++k) s += l(i, k) * l(j, k);
      ASSERT_NEAR(s, a_orig(i, j), tol) << i << "," << j;
    }
}

TEST(FtCholesky, CleanRunMatchesPlainPotrf) {
  Fix s(96, 1);
  Matrix orig = s.a;
  FtCholesky ft(s.buffers(), {}, nullptr, 32);
  EXPECT_EQ(ft.run(s.be), FtStatus::kOk);
  expect_valid_factor(s.a.view(), orig.view(), 1e-7);
  EXPECT_EQ(ft.stats().errors_detected, 0u);
}

class FtCholeskySizes : public ::testing::TestWithParam<int> {};

TEST_P(FtCholeskySizes, FactorsCorrectlyAcrossDims) {
  const int n = GetParam();
  Fix s(n, 100 + n);
  Matrix orig = s.a;
  FtCholesky ft(s.buffers(), {}, nullptr, 24);
  EXPECT_EQ(ft.run(s.be), FtStatus::kOk);
  expect_valid_factor(s.a.view(), orig.view(), 1e-7 * n);
}

INSTANTIATE_TEST_SUITE_P(Dims, FtCholeskySizes,
                         ::testing::Values(8, 24, 25, 48, 100, 129));

TEST(FtCholesky, NonSpdInputReportsNumericalFailure) {
  Fix s(16, 2);
  s.a(5, 5) = -100.0;
  FtCholesky ft(s.buffers());
  EXPECT_EQ(ft.run(s.be), FtStatus::kNumericalFailure);
}

TEST(FtCholesky, TrailingErrorDetectedLocatedAndCorrected) {
  // Corrupt an element of the trailing matrix after checksums were encoded;
  // the next verification must repair it exactly.
  struct CorruptingTap {
    double* target;
    std::uint64_t* counter;
    std::uint64_t fire_at;
    void read(const void*, std::size_t = 8) { tick(); }
    void write(const void*, std::size_t = 8) { tick(); }
    void update(const void*, std::size_t = 8) { tick(); }
    void tick() {
      if (++*counter == fire_at) *target += 100.0;
    }
  };
  Fix s(128, 3);
  Matrix orig = s.a;
  FtCholesky ft(s.buffers(), {}, nullptr, 32);
  std::uint64_t counter = 0;
  // Element deep in the trailing matrix, hit early in the run.
  TapBackend be(CorruptingTap{&s.a(100, 90), &counter, 50000});
  const FtStatus st = ft.run(be);
  EXPECT_EQ(st, FtStatus::kCorrectedErrors);
  EXPECT_GE(ft.stats().errors_corrected, 1u);
  expect_valid_factor(s.a.view(), orig.view(), 1e-6);
}

TEST(FtCholesky, MultipleColumnsCorrectedInOnePass) {
  Fix s(96, 4);
  FtCholesky ft(s.buffers(), {}, nullptr, 32);
  // Encode checksums for the full matrix, then corrupt three columns.
  ft.verify_and_correct(0, s.be);  // no-op verify to exercise the clean path
  Matrix orig = s.a;
  // Manually encode trailing checksums via a fresh run-less path: use the
  // public API -- run a clean factorization first, corrupt L afterwards is
  // not covered; instead corrupt between encode and verify using the tap.
  struct MultiCorruptTap {
    double* t1;
    double* t2;
    double* t3;
    std::uint64_t* counter;
    std::uint64_t fire_at;
    void read(const void*, std::size_t = 8) { tick(); }
    void write(const void*, std::size_t = 8) { tick(); }
    void update(const void*, std::size_t = 8) { tick(); }
    void tick() {
      if (++*counter == fire_at) {
        *t1 += 3.0;
        *t2 -= 8.0;
        *t3 += 0.5;
      }
    }
  };
  Fix s2(96, 4);
  Matrix orig2 = s2.a;
  FtCholesky ft2(s2.buffers(), {}, nullptr, 32);
  std::uint64_t counter = 0;
  TapBackend be(MultiCorruptTap{&s2.a(90, 70), &s2.a(80, 75), &s2.a(95, 85),
                                &counter, 40000});
  const FtStatus st = ft2.run(be);
  EXPECT_EQ(st, FtStatus::kCorrectedErrors);
  EXPECT_GE(ft2.stats().errors_corrected, 3u);
  expect_valid_factor(s2.a.view(), orig2.view(), 1e-6);
  (void)orig;
}

TEST(FtCholesky, TwoErrorsInSameColumnUncorrectable) {
  struct TwoSameColTap {
    double* t1;
    double* t2;
    std::uint64_t* counter;
    std::uint64_t fire_at;
    void read(const void*, std::size_t = 8) { tick(); }
    void write(const void*, std::size_t = 8) { tick(); }
    void update(const void*, std::size_t = 8) { tick(); }
    void tick() {
      if (++*counter == fire_at) {
        *t1 += 5.0;
        *t2 += 7.0;
      }
    }
  };
  Fix s(96, 5);
  FtCholesky ft(s.buffers(), {}, nullptr, 32);
  std::uint64_t counter = 0;
  TapBackend be(TwoSameColTap{&s.a(80, 70), &s.a(90, 70), &counter, 40000});
  EXPECT_EQ(ft.run(be), FtStatus::kUncorrectable);
}

TEST(FtCholesky, ChecksumMaintenanceTrackedAsEncodeTime) {
  Fix s(96, 6);
  FtCholesky ft(s.buffers(), {}, nullptr, 32);
  ASSERT_EQ(ft.run(s.be), FtStatus::kOk);
  EXPECT_GT(ft.stats().encode_seconds, 0.0);
  EXPECT_GT(ft.stats().verify_seconds, 0.0);
  EXPECT_GT(ft.stats().verifications, 1u);
}

}  // namespace
}  // namespace abftecc::abft

// Unit tests for common: Rng, Matrix/views, units, contracts.
#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace abftecc {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, BelowNeverReachesBound) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng child = a.split();
  EXPECT_NE(a(), child());
}

TEST(Matrix, IdentityHasOnesOnDiagonal) {
  Matrix id = Matrix::identity(4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
}

TEST(Matrix, ColumnMajorLayout) {
  Matrix m(3, 2);
  m(1, 0) = 7.0;
  m(0, 1) = 9.0;
  EXPECT_DOUBLE_EQ(m.data()[1], 7.0);
  EXPECT_DOUBLE_EQ(m.data()[3], 9.0);
}

TEST(Matrix, BlockViewSharesStorage) {
  Matrix m(4, 4);
  auto blk = m.block(1, 1, 2, 2);
  blk(0, 0) = 42.0;
  EXPECT_DOUBLE_EQ(m(1, 1), 42.0);
  EXPECT_EQ(blk.ld(), 4u);
}

TEST(Matrix, ColSpanIsContiguousColumn) {
  Matrix m(3, 3);
  m(0, 2) = 1.0;
  m(2, 2) = 3.0;
  auto col = m.view().col(2);
  EXPECT_DOUBLE_EQ(col[0], 1.0);
  EXPECT_DOUBLE_EQ(col[2], 3.0);
}

TEST(Matrix, RandomSpdIsSymmetricAndDiagonallyHeavy) {
  Rng rng(3);
  Matrix a = Matrix::random_spd(16, rng);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; ++j)
      EXPECT_DOUBLE_EQ(a(i, j), a(j, i));
    EXPECT_GT(a(i, i), 0.0);
  }
}

TEST(Matrix, RandomSpdIsExactlyRRtPlusNIFromRandom) {
  // Reference: R from random() with the same seed, A = R R^T + n I with
  // each entry a dot product summed in k order. Generated inputs feed the
  // pinned sweep goldens, so the streaming form must match bit for bit and
  // leave the generator in the same state.
  for (const std::size_t n : {1, 5, 33}) {
    Rng r1(40 + n), r2(40 + n);
    const Matrix r = Matrix::random(n, n, r1);
    const Matrix a = Matrix::random_spd(n, r2);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < n; ++i) {
        double s = 0.0;
        for (std::size_t k = 0; k < n; ++k) s += r(i, k) * r(j, k);
        if (i == j) s += static_cast<double>(n);
        EXPECT_EQ(a(i, j), s) << n << ": " << i << "," << j;
      }
    EXPECT_EQ(r1(), r2());
  }
}

TEST(Matrix, MaxAbsDiffAndFrobenius) {
  Matrix a(2, 2), b(2, 2);
  a(0, 0) = 3.0;
  b(0, 0) = 1.0;
  a(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(max_abs_diff(a.view(), b.view()), 4.0);
  EXPECT_DOUBLE_EQ(frobenius_norm(a.view()), 5.0);
}

TEST(MatrixView, BlockOutOfRangeViolatesContract) {
  Matrix m(3, 3);
  EXPECT_THROW(static_cast<void>(m.view().block(2, 2, 2, 2)),
               ContractViolation);
}

TEST(Units, FitConversion) {
  // 1e9 FIT/Mbit over 1 Mbit = 1 failure per hour.
  FitPerMbit rate{1e9};
  EXPECT_NEAR(rate.failures_per_second(1.0) * 3600.0, 1.0, 1e-12);
}

TEST(Units, JoulesFromPicojoules) {
  EXPECT_DOUBLE_EQ(joules(2.5e12), 2.5);
}

}  // namespace
}  // namespace abftecc

// Fused FT-DGEMM: clean-run correctness against the plain product, the
// side-vector checksum catching and repairing an element corrupted
// between verify periods, refusal of patterns beyond single-error
// capability, and the native backend's bulk instrumentation counters.
#include <gtest/gtest.h>

#include <cmath>

#include "abft/ft_dgemm_fused.hpp"
#include "common/backend.hpp"
#include "common/rng.hpp"
#include "linalg/blas.hpp"

namespace abftecc::abft {
namespace {

struct Fix {
  Matrix a, b, c;
  Fix(std::size_t m, std::size_t n, std::size_t k, std::uint64_t seed)
      : a(m, k), b(k, n), c(m, n) {
    Rng rng(seed);
    a = Matrix::random(m, k, rng);
    b = Matrix::random(k, n, rng);
  }
  Matrix reference() {
    Matrix ref(a.rows(), b.cols());
    linalg::gemm(1.0, a.view(), b.view(), 0.0, ref.view());
    return ref;
  }
};

/// Small panels so modest dims still cross several verify groups.
FusedOptions small_groups() {
  FusedOptions o;
  o.verify_period = 2;
  o.panel = 16;
  o.jblock = 24;
  return o;
}

TEST(FtDgemmFused, CleanRunMatchesPlainGemm) {
  Fix s(96, 80, 112, 1);
  NativeBackend be;
  FtDgemmFused ft(s.a.view(), s.b.view(), s.c.view(), small_groups());
  EXPECT_EQ(ft.run(be), FtStatus::kOk);
  Matrix ref = s.reference();
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-9);
  EXPECT_EQ(ft.stats().errors_detected, 0u);
  EXPECT_GT(ft.stats().verifications, 1u);
  // Bulk instrumentation: the kernel announced its matrices and blocks.
  EXPECT_GT(be.counters().touches, 0u);
  EXPECT_GE(be.counters().bytes_read,
            (s.a.rows() * s.a.cols() + s.b.rows() * s.b.cols()) *
                sizeof(double));
}

TEST(FtDgemmFused, ErrorInjectedBetweenVerifyPeriodsIsCorrected) {
  Fix s(64, 64, 128, 2);
  NativeBackend be;
  FtDgemmFused ft(s.a.view(), s.b.view(), s.c.view(), small_groups());
  // Corrupt one C element after the second group's panel updates land in
  // the first column block, before its fused verification runs -- i.e.
  // strictly between verify periods.
  bool fired = false;
  ft.set_fault_hook([&](std::size_t group, std::size_t j0) {
    if (fired || group != 1 || j0 != 0) return;
    fired = true;
    s.c(17, 5) += 3.0;
  });
  EXPECT_EQ(ft.run(be), FtStatus::kCorrectedErrors);
  ASSERT_TRUE(fired);
  EXPECT_EQ(ft.stats().errors_detected, 1u);
  EXPECT_EQ(ft.stats().errors_corrected, 1u);
  Matrix ref = s.reference();
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-8);
}

TEST(FtDgemmFused, ErrorsInDifferentGroupsEachCorrected) {
  Fix s(48, 48, 128, 3);
  NativeBackend be;
  FtDgemmFused ft(s.a.view(), s.b.view(), s.c.view(), small_groups());
  // One corruption per verify group: each is inside its group's
  // single-error capability, so both are repaired.
  ft.set_fault_hook([&](std::size_t group, std::size_t j0) {
    if (j0 != 0) return;
    if (group == 0) s.c(3, 7) -= 2.0;
    if (group == 2) s.c(40, 30) += 5.0;
  });
  EXPECT_EQ(ft.run(be), FtStatus::kCorrectedErrors);
  EXPECT_EQ(ft.stats().errors_corrected, 2u);
  Matrix ref = s.reference();
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-8);
}

TEST(FtDgemmFused, TwoErrorsSameColumnExceedCapability) {
  Fix s(48, 48, 64, 4);
  NativeBackend be;
  FtDgemmFused ft(s.a.view(), s.b.view(), s.c.view(), small_groups());
  // Two corrupted rows but one corrupted column: residual counts cannot
  // pair up, so the kernel must refuse rather than mis-correct.
  ft.set_fault_hook([&](std::size_t group, std::size_t j0) {
    if (group != 0 || j0 != 0) return;
    s.c(5, 9) += 2.0;
    s.c(31, 9) += 4.0;
  });
  EXPECT_EQ(ft.run(be), FtStatus::kUncorrectable);
  EXPECT_GE(ft.stats().errors_detected, 2u);
}

TEST(FtDgemmFused, PoisonedBitInRegisteredRegionIsCorrected) {
  Fix s(64, 64, 64, 5);
  NativeBackend be;
  const std::size_t cid = be.register_region(
      s.c.data(), s.c.rows() * s.c.cols() * sizeof(double), "C",
      /*abft_protected=*/true);
  FtDgemmFused ft(s.a.view(), s.b.view(), s.c.view(), small_groups());
  // The native fault path end to end: flip a high mantissa bit of C(2,1)
  // through the region registry, between verify periods.
  bool fired = false;
  ft.set_fault_hook([&](std::size_t group, std::size_t j0) {
    if (fired || group != 0 || j0 != 0) return;
    fired = true;
    const std::size_t off = (1 * s.c.rows() + 2) * sizeof(double);
    ASSERT_TRUE(be.poison_bit(cid, off + 6, 2));  // bit 50 of the double
  });
  EXPECT_EQ(ft.run(be), FtStatus::kCorrectedErrors);
  ASSERT_TRUE(fired);
  EXPECT_EQ(be.counters().faults_injected, 1u);
  Matrix ref = s.reference();
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-8);
}

TEST(FtDgemmFused, OddShapesAndPartialPanels) {
  // Dims that are not multiples of panel, jblock, or the SIMD tile.
  for (const auto& [m, n, k] : {std::tuple<std::size_t, std::size_t,
                                           std::size_t>{33, 29, 70},
                                {65, 41, 97},
                                {17, 130, 19}}) {
    Fix s(m, n, k, 100 + m);
    NativeBackend be;
    FtDgemmFused ft(s.a.view(), s.b.view(), s.c.view(), small_groups());
    ASSERT_EQ(ft.run(be), FtStatus::kOk) << m << "x" << n << "x" << k;
    Matrix ref = s.reference();
    EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-9)
        << m << "x" << n << "x" << k;
  }
}

TEST(GemmNative, DispatchReportsAKernel) {
  // Whichever path the host CPU selects, the name and availability agree.
  const bool simd = linalg::native_simd_available();
  const std::string name = linalg::native_kernel_name();
  EXPECT_EQ(simd, name == "avx2-fma");
  if (!simd) {
    EXPECT_EQ(name, "scalar-blocked");
  }
}

}  // namespace
}  // namespace abftecc::abft

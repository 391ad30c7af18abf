// FT-CG: convergence, invariant-based detection, restart recovery, and the
// static checksum protection of b.
#include <gtest/gtest.h>

#include "abft/ft_cg.hpp"
#include "common/rng.hpp"
#include "linalg/generate.hpp"

namespace abftecc::abft {
namespace {

struct Fix {
  linalg::LinearSystem sys;
  std::vector<double> b, x, r, z, p, q, workspace;
  NativeBackend be;
  explicit Fix(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    sys = linalg::make_spd_system(n, rng);
    b = sys.b;
    x.assign(n, 0.0);
    r.assign(n, 0.0);
    z.assign(n, 0.0);
    p.assign(n, 0.0);
    q.assign(n, 0.0);
    workspace.assign(4 * n, 0.0);
  }
  FtCg::Buffers buffers() { return {x, r, z, p, q, workspace}; }
  [[nodiscard]] double solution_error() const {
    double m = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      m = std::max(m, std::abs(x[i] - sys.x_true[i]));
    return m;
  }
};

linalg::CgOptions tight(std::size_t n) {
  linalg::CgOptions o;
  o.max_iterations = 6 * n;
  o.tolerance = 1e-12;
  return o;
}

TEST(FtCg, CleanSolveConverges) {
  Fix s(64, 1);
  FtCg ft(s.sys.a.view(), s.b, s.buffers(), tight(64));
  const FtCgResult res = ft.run(s.be);
  EXPECT_TRUE(res.cg.converged);
  EXPECT_EQ(res.status, FtStatus::kOk);
  EXPECT_LT(s.solution_error(), 1e-8);
  EXPECT_EQ(ft.stats().errors_detected, 0u);
}

class FtCgSizes : public ::testing::TestWithParam<int> {};

TEST_P(FtCgSizes, ConvergesAcrossDims) {
  const int n = GetParam();
  Fix s(n, 50 + n);
  FtCg ft(s.sys.a.view(), s.b, s.buffers(), tight(n));
  const FtCgResult res = ft.run(s.be);
  EXPECT_TRUE(res.cg.converged);
  EXPECT_LT(s.solution_error(), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Dims, FtCgSizes, ::testing::Values(4, 16, 64, 150));

// A tap that flips one value after a given number of references.
struct CorruptingTap {
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

TEST(FtCg, ResidualCorruptionDetectedAndSolveStillConverges) {
  Fix s(96, 2);
  FtCg ft(s.sys.a.view(), s.b, s.buffers(), tight(96));
  std::uint64_t counter = 0;
  TapBackend be(CorruptingTap{&s.r[40], 50.0, &counter, 200000});
  const FtCgResult res = ft.run(be);
  EXPECT_TRUE(res.cg.converged);
  EXPECT_EQ(res.status, FtStatus::kCorrectedErrors);
  EXPECT_GE(ft.stats().errors_corrected, 1u);
  EXPECT_LT(s.solution_error(), 1e-7);
}

TEST(FtCg, IterateCorruptionRecoveredByRestart) {
  Fix s(96, 3);
  FtCg ft(s.sys.a.view(), s.b, s.buffers(), tight(96));
  std::uint64_t counter = 0;
  TapBackend be(CorruptingTap{&s.x[10], 1e3, &counter, 300000});
  const FtCgResult res = ft.run(be);
  EXPECT_TRUE(res.cg.converged);
  EXPECT_GE(ft.stats().errors_detected, 1u);
  EXPECT_LT(s.solution_error(), 1e-7);
}

TEST(FtCg, DirectionVectorCorruptionRecovered) {
  Fix s(96, 4);
  FtCg ft(s.sys.a.view(), s.b, s.buffers(), tight(96));
  std::uint64_t counter = 0;
  TapBackend be(CorruptingTap{&s.p[5], -200.0, &counter, 250000});
  const FtCgResult res = ft.run(be);
  EXPECT_TRUE(res.cg.converged);
  EXPECT_LT(s.solution_error(), 1e-7);
}

TEST(FtCg, NonFiniteIterateSanitizedAndRecovered) {
  Fix s(64, 5);
  FtCg ft(s.sys.a.view(), s.b, s.buffers(), tight(64));
  std::uint64_t counter = 0;
  TapBackend be(CorruptingTap{
      &s.x[3], std::numeric_limits<double>::infinity(), &counter, 150000});
  const FtCgResult res = ft.run(be);
  EXPECT_TRUE(res.cg.converged);
  EXPECT_LT(s.solution_error(), 1e-7);
}

TEST(FtCg, RhsCorruptionRepairedFromStaticChecksum) {
  Fix s(96, 6);
  FtCg ft(s.sys.a.view(), s.b, s.buffers(), tight(96));
  std::uint64_t counter = 0;
  TapBackend be(CorruptingTap{&s.b[60], 25.0, &counter, 220000});
  const FtCgResult res = ft.run(be);
  EXPECT_TRUE(res.cg.converged);
  EXPECT_GE(ft.stats().errors_corrected, 1u);
  // b repaired, so the converged solution solves the ORIGINAL system.
  EXPECT_LT(s.solution_error(), 1e-7);
  EXPECT_NEAR(s.b[60], s.sys.b[60], 1e-9);
}

TEST(FtCg, VerificationIsPeriodic) {
  Fix s(64, 7);
  FtOptions opt;
  opt.verify_period = 2;
  FtCg ft(s.sys.a.view(), s.b, s.buffers(), tight(64), opt);
  const FtCgResult res = ft.run(s.be);
  EXPECT_TRUE(res.cg.converged);
  // At least iterations/period verifications (plus the convergence guard).
  EXPECT_GE(ft.stats().verifications, res.cg.iterations / 2);
}

TEST(FtCg, CorruptionJustBeforeConvergenceCaughtByFinalGuard) {
  // Fire extremely late: the final pre-convergence verification must still
  // catch the inconsistency rather than reporting a corrupted solution.
  Fix s(64, 8);
  FtCg ft(s.sys.a.view(), s.b, s.buffers(), tight(64));
  // First, learn how many refs a clean run makes.
  Fix probe(64, 8);
  FtCg clean(probe.sys.a.view(), probe.b, probe.buffers(), tight(64));
  std::uint64_t total = 0;
  struct CountTap {
    std::uint64_t* c;
    void read(const void*, std::size_t = 8) { ++*c; }
    void write(const void*, std::size_t = 8) { ++*c; }
    void update(const void*, std::size_t = 8) { ++*c; }
  };
  TapBackend counting(CountTap{&total});
  ASSERT_TRUE(clean.run(counting).cg.converged);
  std::uint64_t counter = 0;
  TapBackend be(CorruptingTap{&s.x[20], 77.0, &counter, total * 95 / 100});
  const FtCgResult res = ft.run(be);
  if (res.cg.converged) {
    EXPECT_LT(s.solution_error(), 1e-6);
  }
}

}  // namespace
}  // namespace abftecc::abft

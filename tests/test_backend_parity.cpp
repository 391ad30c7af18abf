// Backend parity: every kernel, run fault-free through the redesigned
// MemBackend boundary, produces bit-identical results under NativeBackend
// and SimBackend. The two modes differ in instrumentation and time source
// only -- the arithmetic path is shared -- so anything short of equal
// bytes is a backend leaking into the numerics. The backend is also each
// kernel's only entry and the only clock its FtStats seconds read.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>

#include "abft/ft_cg.hpp"
#include "abft/ft_cholesky.hpp"
#include "abft/ft_dgemm.hpp"
#include "abft/ft_dgemm_dual.hpp"
#include "abft/ft_hpl.hpp"
#include "abft/ft_qr.hpp"
#include "common/backend.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "linalg/generate.hpp"
#include "memsim/system.hpp"
#include "os/os.hpp"
#include "sim/backend.hpp"
#include "sim/tap.hpp"

namespace abftecc::abft {
namespace {

/// A fresh simulated node per run: MemorySystem -> Os -> TapContext, the
/// same wiring sim::Session uses, without the session's kernel plumbing.
/// A simulated kernel references only Os memory, so every sim-side operand
/// is copied into a region first.
struct SimRig {
  memsim::MemorySystem sys;
  os::Os os;
  sim::TapContext ctx;
  sim::SimBackend be;
  SimRig()
      : sys(memsim::SystemConfig::scaled(8), ecc::Scheme::kChipkill),
        os(sys),
        ctx(os, sys),
        be(ctx, sys) {}

  MatrixView copy(const Matrix& m) {
    auto* p = static_cast<double*>(os.malloc_plain(m.size() * sizeof(double)));
    std::copy_n(m.data(), m.size(), p);
    return MatrixView(p, m.rows(), m.cols(), m.rows());
  }
  std::span<double> copy(const std::vector<double>& v) {
    auto* p = static_cast<double*>(os.malloc_plain(v.size() * sizeof(double)));
    std::copy(v.begin(), v.end(), p);
    return {p, v.size()};
  }
};

::testing::AssertionResult bits_equal(ConstMatrixView x, ConstMatrixView y) {
  if (x.rows() != y.rows() || x.cols() != y.cols())
    return ::testing::AssertionFailure() << "shape mismatch";
  for (std::size_t j = 0; j < x.cols(); ++j)
    for (std::size_t i = 0; i < x.rows(); ++i)
      if (std::memcmp(&x(i, j), &y(i, j), sizeof(double)) != 0)
        return ::testing::AssertionFailure()
               << "bit mismatch at (" << i << "," << j << "): " << x(i, j)
               << " vs " << y(i, j);
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult bits_equal(std::span<const double> x,
                                      std::span<const double> y) {
  if (x.size() != y.size())
    return ::testing::AssertionFailure() << "length mismatch";
  if (std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0)
    return ::testing::AssertionFailure() << "vector bits differ";
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------- dgemm --

struct DgemmFix {
  Matrix a, b, ac, br, cf;
  DgemmFix(std::size_t pad, std::uint64_t seed)
      : a(48, 56),
        b(56, 40),
        ac(48 + pad, 56),
        br(56, 40 + pad),
        cf(48 + pad, 40 + pad) {
    Rng rng(seed);
    a = Matrix::random(48, 56, rng);
    b = Matrix::random(56, 40, rng);
  }
};

TEST(BackendParity, FtDgemmNativeMatchesSimBitForBit) {
  DgemmFix nat(1, 7), sim(1, 7);
  NativeBackend nbe;
  FtDgemm nft(nat.a.view(), nat.b.view(),
              {nat.ac.view(), nat.br.view(), nat.cf.view()});
  ASSERT_EQ(nft.run(nbe), FtStatus::kOk);

  SimRig rig;
  const MatrixView cf = rig.copy(sim.cf);
  FtDgemm sft(rig.copy(sim.a), rig.copy(sim.b),
              {rig.copy(sim.ac), rig.copy(sim.br), cf});
  ASSERT_EQ(sft.run(rig.be), FtStatus::kOk);

  EXPECT_TRUE(bits_equal(nat.cf.view(), cf));
  // Sim mode issued the kernel's references into memsim; native did not.
  EXPECT_GT(rig.sys.stats().mem_refs, 0u);
}

TEST(BackendParity, FtDgemmDualNativeMatchesSimBitForBit) {
  DgemmFix nat(2, 8), sim(2, 8);
  NativeBackend nbe;
  FtDgemmDual nft(nat.a.view(), nat.b.view(),
                  {nat.ac.view(), nat.br.view(), nat.cf.view()});
  ASSERT_EQ(nft.run(nbe), FtStatus::kOk);

  SimRig rig;
  const MatrixView cf = rig.copy(sim.cf);
  FtDgemmDual sft(rig.copy(sim.a), rig.copy(sim.b),
                  {rig.copy(sim.ac), rig.copy(sim.br), cf});
  ASSERT_EQ(sft.run(rig.be), FtStatus::kOk);

  EXPECT_TRUE(bits_equal(nat.cf.view(), cf));
}

// ------------------------------------------------------------- cholesky --

TEST(BackendParity, FtCholeskyNativeMatchesSimBitForBit) {
  const std::size_t n = 48;
  Rng r1(9), r2(9);
  Matrix an = Matrix::random_spd(n, r1), as = Matrix::random_spd(n, r2);
  std::vector<double> sn(n), wn(n), ss(n), ws(n);

  NativeBackend nbe;
  FtCholesky nft({an.view(), sn, wn}, {}, nullptr, 16);
  ASSERT_EQ(nft.run(nbe), FtStatus::kOk);

  SimRig rig;
  const FtCholesky::Buffers sbuf{rig.copy(as), rig.copy(ss), rig.copy(ws)};
  FtCholesky sft(sbuf, {}, nullptr, 16);
  ASSERT_EQ(sft.run(rig.be), FtStatus::kOk);

  EXPECT_TRUE(bits_equal(an.view(), sbuf.a));
  EXPECT_TRUE(bits_equal(sn, sbuf.sum));
  EXPECT_TRUE(bits_equal(wn, sbuf.weighted));
}

// ------------------------------------------------------------------- cg --

TEST(BackendParity, FtCgNativeMatchesSimBitForBit) {
  const std::size_t n = 64;
  Rng r1(10), r2(10);
  linalg::LinearSystem sysn = linalg::make_spd_system(n, r1);
  linalg::LinearSystem syss = linalg::make_spd_system(n, r2);
  std::vector<double> xn(n, 0.0), rn(n, 0.0), zn(n, 0.0), pn(n, 0.0),
      qn(n, 0.0), wn(4 * n, 0.0);
  std::vector<double> xs(n, 0.0), rs(n, 0.0), zs(n, 0.0), ps(n, 0.0),
      qs(n, 0.0), ws(4 * n, 0.0);
  linalg::CgOptions opt;
  opt.max_iterations = 4 * n;
  opt.tolerance = 1e-12;

  NativeBackend nbe;
  FtCg nft(sysn.a.view(), sysn.b, {xn, rn, zn, pn, qn, wn}, opt);
  const FtCgResult rnat = nft.run(nbe);
  ASSERT_TRUE(rnat.cg.converged);

  SimRig rig;
  const std::span<double> sx = rig.copy(xs);
  FtCg sft(rig.copy(syss.a), rig.copy(syss.b),
           {sx, rig.copy(rs), rig.copy(zs), rig.copy(ps), rig.copy(qs),
            rig.copy(ws)},
           opt);
  const FtCgResult rsim = sft.run(rig.be);
  ASSERT_TRUE(rsim.cg.converged);

  EXPECT_EQ(rnat.cg.iterations, rsim.cg.iterations);
  EXPECT_TRUE(bits_equal(xn, sx));
}

// ------------------------------------------------------------------ hpl --

TEST(BackendParity, FtHplNativeMatchesSimBitForBit) {
  const std::size_t n = 64, procs = 4, h = n / procs;
  Rng r1(11), r2(11);
  linalg::LinearSystem sysn = linalg::make_general_system(n, r1);
  linalg::LinearSystem syss = linalg::make_general_system(n, r2);
  Matrix aen(n + h, n + 1), ucn(h, n + 1), aes(n + h, n + 1), ucs(h, n + 1);

  NativeBackend nbe;
  FtHpl nft(nbe, sysn.a.view(), sysn.b, procs, {aen.view(), ucn.view()}, {},
            nullptr, 16);
  ASSERT_EQ(nft.factor(nbe), FtStatus::kOk);
  std::vector<double> xn(n);
  nft.solve(xn);

  SimRig rig;
  const MatrixView ae = rig.copy(aes);
  FtHpl sft(rig.be, rig.copy(syss.a), rig.copy(syss.b), procs,
            {ae, rig.copy(ucs)}, {}, nullptr, 16);
  ASSERT_EQ(sft.factor(rig.be), FtStatus::kOk);
  std::vector<double> xs(n);
  sft.solve(xs);

  EXPECT_TRUE(bits_equal(aen.view(), ae));
  EXPECT_TRUE(bits_equal(xn, xs));
}

// ------------------------------------------------------------------- qr --

TEST(BackendParity, FtQrNativeMatchesSimBitForBit) {
  const std::size_t m = 48, n = 48;
  Rng r1(12), r2(12);
  Matrix an = Matrix::random(m, n, r1), as = Matrix::random(m, n, r2);
  for (std::size_t i = 0; i < n; ++i) {
    an(i, i) += static_cast<double>(n);
    as(i, i) += static_cast<double>(n);
  }
  Matrix awn(m, n + 2), aws(m, n + 2);
  std::vector<double> taun(n, 0.0), taus(n, 0.0);

  NativeBackend nbe;
  FtQr nft(nbe, an.view(), {awn.view(), taun}, {}, nullptr, 16);
  ASSERT_EQ(nft.factor(nbe), FtStatus::kOk);

  SimRig rig;
  const FtQr::Buffers sbuf{rig.copy(aws), rig.copy(taus)};
  FtQr sft(rig.be, rig.copy(as), sbuf, {}, nullptr, 16);
  ASSERT_EQ(sft.factor(rig.be), FtStatus::kOk);

  EXPECT_TRUE(bits_equal(awn.view(), sbuf.aw));
  EXPECT_TRUE(bits_equal(taun, sbuf.tau));
}

// ------------------------------------------------------------ one entry --

// A backend is each kernel's only entry: no member takes a bare tap.
template <typename K, typename Arg>
constexpr bool runs_on = requires(K& k, Arg& arg) { k.run(arg); };
template <typename K, typename Arg>
constexpr bool factors_on = requires(K& k, Arg& arg) { k.factor(arg); };
static_assert(runs_on<FtDgemm, NativeBackend> && !runs_on<FtDgemm, NullTap>);
static_assert(runs_on<FtDgemmDual, NativeBackend> &&
              !runs_on<FtDgemmDual, NullTap>);
static_assert(runs_on<FtCholesky, NativeBackend> &&
              !runs_on<FtCholesky, NullTap>);
static_assert(runs_on<FtCg, NativeBackend> && !runs_on<FtCg, NullTap>);
static_assert(factors_on<FtHpl, NativeBackend> && !factors_on<FtHpl, NullTap>);
static_assert(factors_on<FtQr, NativeBackend> && !factors_on<FtQr, NullTap>);

// ------------------------------------------------------------ one clock --
// FtStats seconds come only from the backend's clock. Through a backend
// whose clock never advances, every phase -- correction included --
// accumulates exactly zero seconds.

template <MemTap T>
struct FrozenClockBackend : TapBackend<T> {
  using TapBackend<T>::TapBackend;
  [[nodiscard]] TickClock clock() const {
    return TickClock(
        nullptr, [](const void*) -> std::uint64_t { return 1; }, 1.0);
  }
};

void expect_zero_seconds(const FtStats& st) {
  EXPECT_EQ(st.encode_seconds, 0.0);
  EXPECT_EQ(st.verify_seconds, 0.0);
  EXPECT_EQ(st.correct_seconds, 0.0);
}

/// Adds `delta` to `*target` at the `fire_at`-th update of `trigger`.
struct UpdateTriggerTap {
  const void* trigger;
  double* target;
  double delta;
  int* updates;
  int fire_at;
  void read(const void*, std::size_t = 8) {}
  void write(const void*, std::size_t = 8) {}
  void update(const void* p, std::size_t = 8) {
    if (p == trigger && ++*updates == fire_at) *target += delta;
  }
};

TEST(OneClock, CholeskyPanelCorrectionReadsTheBackendClock) {
  const std::size_t n = 64, nb = 32;
  Rng rng(21);
  Matrix a = Matrix::random_spd(n, rng);
  std::vector<double> sum(n), weighted(n);
  // weighted[0] is updated by the first panel's checksum split, its
  // TRSM and then the add-back right before the panel verify: the third
  // update corrupts the finished panel L21, so the panel verify corrects.
  int updates = 0;
  FrozenClockBackend<UpdateTriggerTap> be(
      UpdateTriggerTap{&weighted[0], &a(50, 10), 25.0, &updates, 3});
  FtCholesky ft({a.view(), sum, weighted}, {}, nullptr, nb);
  EXPECT_EQ(ft.run(be), FtStatus::kCorrectedErrors);
  EXPECT_GE(updates, 3);
  EXPECT_EQ(ft.stats().errors_corrected, 1u);
  expect_zero_seconds(ft.stats());
}

TEST(OneClock, CgHardwareAssistedRepairReadsTheBackendClock) {
  // An exposed error pending in the Os sends the first verification down
  // the hardware-assisted repair path.
  memsim::MemorySystem sys(memsim::SystemConfig::scaled(8),
                           ecc::Scheme::kChipkill);
  os::Os os(sys);
  Runtime rt(&os);
  fault::Injector inj(sys, os);
  void* victim = os.malloc_ecc(64, ecc::Scheme::kSecded, "victim", true);
  inj.inject_chip_kill(*os.virt_to_phys(victim), 4, 0x3);
  sys.access(*os.virt_to_phys(victim), memsim::AccessKind::kRead);
  ASSERT_TRUE(rt.errors_pending());

  const std::size_t n = 32;
  Rng rng(22);
  linalg::LinearSystem lin = linalg::make_spd_system(n, rng);
  std::vector<double> x(n, 0.0), r(n), z(n), p(n), q(n), w(4 * n);
  FtOptions opt;
  opt.hardware_assisted = true;
  FtCg ft(lin.a.view(), lin.b, {x, r, z, p, q, w}, {}, opt, &rt);
  FrozenClockBackend<NullTap> be;
  ft.run(be);
  EXPECT_GE(ft.stats().hw_notifications_used, 1u);
  EXPECT_GE(ft.stats().errors_corrected, 1u);
  expect_zero_seconds(ft.stats());
}

TEST(OneClock, QrCorrectionReadsTheBackendClock) {
  const std::size_t n = 48;
  Rng rng(23);
  Matrix a = Matrix::random(n, n, rng);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  Matrix aw(n, n + 2);
  std::vector<double> tau(n, 0.0);
  FrozenClockBackend<NullTap> be;
  FtQr ft(be, a.view(), {aw.view(), tau}, {}, nullptr, 16);
  ASSERT_EQ(ft.factor(be), FtStatus::kOk);
  aw(10, 30) += 9.0;  // in R: row 10's live range starts at column 10
  EXPECT_EQ(ft.verify_and_correct(be), FtStatus::kOk);
  EXPECT_EQ(ft.stats().errors_corrected, 1u);
  expect_zero_seconds(ft.stats());
}

// ------------------------------------------------- native instrumentation --

TEST(NativeBackend, RegionRegistryAndPoisonBit) {
  NativeBackend be;
  std::vector<double> buf(8, 1.0);
  const std::size_t id =
      be.register_region(buf.data(), buf.size() * sizeof(double), "buf",
                         /*abft_protected=*/true);
  ASSERT_NE(id, 0u);
  EXPECT_EQ(be.region_of(&buf[3])->name, "buf");
  EXPECT_EQ(be.region_of(buf.data() + buf.size()), nullptr);

  // Poison flips exactly one bit in place and counts the injection.
  ASSERT_TRUE(be.poison_bit(id, 2 * sizeof(double) + 6, 4));
  EXPECT_NE(buf[2], 1.0);
  ASSERT_TRUE(be.poison_bit(id, 2 * sizeof(double) + 6, 4));
  EXPECT_EQ(buf[2], 1.0);  // same bit again restores the value
  EXPECT_EQ(be.counters().faults_injected, 2u);
  EXPECT_FALSE(be.poison_bit(id, buf.size() * sizeof(double), 0));
  EXPECT_FALSE(be.poison_bit(id, 0, 8));

  be.unregister_region(id);
  EXPECT_EQ(be.region_of(buf.data()), nullptr);
}

TEST(NativeBackend, TouchAccumulatesByteCounters) {
  NativeBackend be;
  double x[4] = {};
  be.touch(x, sizeof(x), MemOp::kRead);
  be.touch(x, sizeof(x), MemOp::kWrite);
  be.touch(x, sizeof(x), MemOp::kUpdate);
  EXPECT_EQ(be.counters().touches, 3u);
  EXPECT_EQ(be.counters().bytes_read, 2 * sizeof(x));
  EXPECT_EQ(be.counters().bytes_written, 2 * sizeof(x));
}

}  // namespace
}  // namespace abftecc::abft

// Integration tests across the full stack: ABFT kernels running on the
// simulated memory system, DRAM fault injection flowing through ECC decode,
// MC error registers, the OS interrupt and the ABFT runtime -- the paper's
// cooperative pipeline -- plus the evaluation platform and scaling engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "abft/ft_dgemm.hpp"
#include "abft/runtime.hpp"
#include "fault/injector.hpp"
#include "os/os.hpp"
#include "sim/platform.hpp"
#include "sim/backend.hpp"
#include "sim/scaling.hpp"
#include "sim/tap.hpp"

namespace abftecc {
namespace {

using sim::Kernel;
using sim::PlatformOptions;
using sim::Strategy;

/// A fully wired node for hand-driven experiments.
struct Rig {
  memsim::MemorySystem sys;
  os::Os os;
  abft::Runtime rt;
  sim::TapContext ctx;
  sim::SimBackend be;
  fault::Injector inj;
  explicit Rig(ecc::Scheme default_scheme = ecc::Scheme::kChipkill)
      : sys(memsim::SystemConfig::scaled(8), default_scheme),
        os(sys),
        rt(&os),
        ctx(os, sys),
        be(ctx, sys),
        inj(sys, os) {}

  MatrixView matrix(std::size_t r, std::size_t c, ecc::Scheme s,
                    const char* name) {
    void* p = os.malloc_ecc(r * c * sizeof(double), s, name, true);
    EXPECT_NE(p, nullptr);
    return MatrixView(static_cast<double*>(p), r, c, r);
  }
  /// A kernel input copied into plain Os memory, as Session::run places it.
  MatrixView input(const Matrix& m, const char* name) {
    auto* p =
        static_cast<double*>(os.malloc_plain(m.size() * sizeof(double), name));
    EXPECT_NE(p, nullptr);
    std::copy_n(m.data(), m.size(), p);
    return MatrixView(p, m.rows(), m.cols(), m.rows());
  }
};

TEST(Cooperative, AbftCorrectsSilentDramErrorUnderNoEcc) {
  // The headline flow for relaxed ECC: a DRAM bit flip in a No_ECC region
  // reaches the application silently; full ABFT verification finds and
  // repairs it from the checksum relationship.
  Rig rig;
  const std::size_t n = 64;
  Rng rng(1);
  Matrix a = Matrix::random(n, n, rng), b = Matrix::random(n, n, rng);
  abft::FtDgemm::Buffers buf{
      rig.matrix(n + 1, n, ecc::Scheme::kNone, "Ac"),
      rig.matrix(n, n + 1, ecc::Scheme::kNone, "Br"),
      rig.matrix(n + 1, n + 1, ecc::Scheme::kNone, "Cf")};
  abft::FtDgemm ft(rig.input(a, "A"), rig.input(b, "B"), buf, {}, &rig.rt);
  ASSERT_EQ(ft.run(rig.be), abft::FtStatus::kOk);

  // Push the result out of the caches (dirty writebacks overwrite DRAM),
  // then corrupt the line in DRAM and re-read through verification.
  void* flusher = rig.os.malloc_plain(4 * rig.sys.config().l2.size_bytes, "flush");
  auto fphys = *rig.os.virt_to_phys(flusher);
  for (std::uint64_t off = 0; off < 4 * rig.sys.config().l2.size_bytes;
       off += 64)
    rig.sys.access(fphys + off, memsim::AccessKind::kRead);

  double* victim = &buf.cf(20, 30);
  const auto vphys = rig.os.virt_to_phys(victim);
  ASSERT_TRUE(vphys.has_value());
  rig.inj.inject_bit(*vphys + 6, 3);  // high-order mantissa/exponent bits

  Matrix ref(n, n);
  linalg::gemm(1.0, a.view(), b.view(), 0.0, ref.view());
  const auto st = ft.verify_and_correct(rig.be);
  EXPECT_EQ(st, abft::FtStatus::kCorrectedErrors);
  EXPECT_GE(rig.inj.stats().silent_corruptions, 1u);
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-7);
}

TEST(Cooperative, HardwareNotificationDrivesSimplifiedVerification) {
  // SECDED-protected ABFT region hit by a whole-chip failure: ECC detects
  // but cannot correct, the MC records the fault site, the OS maps it to a
  // virtual address, and the kernel repairs exactly that element without
  // recomputing any checksum.
  Rig rig;
  const std::size_t n = 64;
  Rng rng(2);
  Matrix a = Matrix::random(n, n, rng), b = Matrix::random(n, n, rng);
  abft::FtOptions opt;
  opt.hardware_assisted = true;
  abft::FtDgemm::Buffers buf{
      rig.matrix(n + 1, n, ecc::Scheme::kSecded, "Ac"),
      rig.matrix(n, n + 1, ecc::Scheme::kSecded, "Br"),
      rig.matrix(n + 1, n + 1, ecc::Scheme::kSecded, "Cf")};
  abft::FtDgemm ft(rig.input(a, "A"), rig.input(b, "B"), buf, opt, &rig.rt);
  ASSERT_EQ(ft.run(rig.be), abft::FtStatus::kOk);

  // Flush, then kill a chip under the line holding cf(5, 7).
  void* flusher = rig.os.malloc_plain(4 * rig.sys.config().l2.size_bytes, "flush");
  auto fphys = *rig.os.virt_to_phys(flusher);
  for (std::uint64_t off = 0; off < 4 * rig.sys.config().l2.size_bytes;
       off += 64)
    rig.sys.access(fphys + off, memsim::AccessKind::kRead);

  double* victim = &buf.cf(5, 7);
  const auto vphys = rig.os.virt_to_phys(victim);
  // Two stuck bit-lines in the chip: a 2-bit-per-word pattern SECDED is
  // guaranteed to detect but cannot correct.
  rig.inj.inject_chip_kill(*vphys, 4, 0x3);
  // Touch the line so the fill decodes, fails, and raises the interrupt.
  rig.sys.access(*vphys, memsim::AccessKind::kRead);
  ASSERT_TRUE(rig.rt.errors_pending());

  Matrix ref(n, n);
  linalg::gemm(1.0, a.view(), b.view(), 0.0, ref.view());
  EXPECT_EQ(ft.verify_and_correct(rig.be), abft::FtStatus::kOk);
  EXPECT_GE(ft.stats().hw_notifications_used, 1u);
  EXPECT_LT(max_abs_diff(ft.result(), ref.view()), 1e-7);
}

TEST(Cooperative, HardwareAssistedSkipsWorkWhenNoErrorPending) {
  Rig rig;
  const std::size_t n = 64;
  Rng rng(3);
  Matrix a = Matrix::random(n, n, rng), b = Matrix::random(n, n, rng);
  abft::FtOptions hw;
  hw.hardware_assisted = true;
  abft::FtDgemm::Buffers buf{
      rig.matrix(n + 1, n, ecc::Scheme::kSecded, "Ac"),
      rig.matrix(n, n + 1, ecc::Scheme::kSecded, "Br"),
      rig.matrix(n + 1, n + 1, ecc::Scheme::kSecded, "Cf")};
  abft::FtDgemm ft(rig.input(a, "A"), rig.input(b, "B"), buf, hw, &rig.rt);
  ASSERT_EQ(ft.run(rig.be), abft::FtStatus::kOk);
  // Same kernel without hardware assist does strictly more verify work.
  Rig rig2;
  abft::FtDgemm::Buffers buf2{
      rig2.matrix(n + 1, n, ecc::Scheme::kSecded, "Ac"),
      rig2.matrix(n, n + 1, ecc::Scheme::kSecded, "Br"),
      rig2.matrix(n + 1, n + 1, ecc::Scheme::kSecded, "Cf")};
  abft::FtDgemm full(rig2.input(a, "A"), rig2.input(b, "B"), buf2, {},
                     &rig2.rt);
  ASSERT_EQ(full.run(rig2.be), abft::FtStatus::kOk);
  EXPECT_LT(rig.sys.stats().mem_refs, rig2.sys.stats().mem_refs);
}

// --- Evaluation platform -----------------------------------------------------

PlatformOptions small_opts(Strategy s) {
  PlatformOptions o;
  o.strategy = s;
  o.dgemm_dim = 96;
  o.cholesky_dim = 96;
  o.cg_dim = 160;
  o.cg_iterations = 3;
  o.hpl_dim = 96;
  return o;
}

TEST(Platform, AllKernelsRunUnderAllStrategies) {
  for (const auto strat :
       {Strategy::kNoEcc, Strategy::kWholeChipkill,
        Strategy::kPartialChipkillSecded}) {
    for (const auto kernel : {Kernel::kDgemm, Kernel::kCholesky, Kernel::kCg,
                              Kernel::kHpl}) {
      const auto m = sim::run_kernel(kernel, small_opts(strat));
      EXPECT_NE(m.status, abft::FtStatus::kUncorrectable);
      EXPECT_GT(m.sys.mem_refs, 0u) << sim::kernel_name(kernel);
      EXPECT_GT(m.mem_dynamic_pj, 0.0);
      EXPECT_GT(m.seconds, 0.0);
      EXPECT_GT(m.refs_abft, 0u);
      EXPECT_GT(m.abft_bytes, 0u);
    }
  }
}

TEST(Platform, WholeChipkillCostsMoreMemoryEnergyThanNoEcc) {
  for (const auto kernel : {Kernel::kDgemm, Kernel::kCg}) {
    const auto none = sim::run_kernel(kernel, small_opts(Strategy::kNoEcc));
    const auto ck =
        sim::run_kernel(kernel, small_opts(Strategy::kWholeChipkill));
    EXPECT_GT(ck.memory_pj(), none.memory_pj()) << sim::kernel_name(kernel);
    EXPECT_LE(ck.ipc, none.ipc * 1.001);
  }
}

TEST(Platform, PartialChipkillRecoversMostOfTheGap) {
  const auto none = sim::run_kernel(Kernel::kDgemm, small_opts(Strategy::kNoEcc));
  const auto whole =
      sim::run_kernel(Kernel::kDgemm, small_opts(Strategy::kWholeChipkill));
  const auto partial = sim::run_kernel(
      Kernel::kDgemm, small_opts(Strategy::kPartialChipkillNoEcc));
  EXPECT_LT(partial.mem_dynamic_pj, whole.mem_dynamic_pj);
  EXPECT_GE(partial.mem_dynamic_pj, none.mem_dynamic_pj * 0.99);
}

TEST(Platform, RefsClassificationDominatedByAbftDataForDgemm) {
  const auto m = sim::run_kernel(Kernel::kDgemm, small_opts(Strategy::kNoEcc));
  // FT-DGEMM touches the encoded matrices almost exclusively (Table 4's
  // ratio of 654 at paper scale).
  EXPECT_GT(m.refs_abft, 10 * m.refs_other);
}

TEST(Platform, DgmsRunsAndPredictsCoarseForDgemm) {
  PlatformOptions o = small_opts(Strategy::kPartialChipkillSecded);
  o.use_dgms = true;
  const auto dgms = sim::run_kernel(Kernel::kDgemm, o);
  const auto ours =
      sim::run_kernel(Kernel::kDgemm, small_opts(Strategy::kPartialChipkillSecded));
  // ABFT-blind DGMS spends more memory energy than ABFT-directed ECC.
  EXPECT_GT(dgms.mem_dynamic_pj, ours.mem_dynamic_pj);
}

TEST(Platform, HardwareAssistReducesSimulatedWork) {
  PlatformOptions hw = small_opts(Strategy::kWholeChipkill);
  hw.hardware_assisted = true;
  const auto assisted = sim::run_kernel(Kernel::kDgemm, hw);
  const auto full =
      sim::run_kernel(Kernel::kDgemm, small_opts(Strategy::kWholeChipkill));
  EXPECT_LT(assisted.sys.mem_refs, full.sys.mem_refs);
  EXPECT_LT(assisted.seconds, full.seconds);
}

// --- Scaling engine ----------------------------------------------------------

TEST(Scaling, WeakScalingBenefitAndCostGrowWithScale) {
  sim::ScalingOptions opt;
  opt.process_counts = {100, 800, 6400};
  opt.base_dim = 448;  // operator larger than the scaled L2: real traffic
  opt.iterations = 3;
  opt.platform = small_opts(Strategy::kPartialChipkillNoEcc);
  sim::ScalingStudy study(opt);
  const auto points = study.weak_scaling(Strategy::kPartialChipkillNoEcc);
  ASSERT_EQ(points.size(), 3u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].energy_benefit_kj, points[i - 1].energy_benefit_kj);
    EXPECT_GT(points[i].recovery_cost_kj, points[i - 1].recovery_cost_kj);
    EXPECT_LT(points[i].mttf_hetero_seconds,
              points[i - 1].mttf_hetero_seconds);
  }
  // Benefit dominates recovery cost (Section 5.2's conclusion).
  for (const auto& p : points)
    EXPECT_GT(p.energy_benefit_kj, p.recovery_cost_kj);
}

TEST(Scaling, SecdedOnAbftDataCutsRecoveryCost) {
  sim::ScalingOptions opt;
  opt.process_counts = {800};
  opt.base_dim = 448;
  opt.iterations = 3;
  opt.platform = small_opts(Strategy::kPartialChipkillNoEcc);
  sim::ScalingStudy study(opt);
  const auto no_ecc = study.weak_scaling(Strategy::kPartialChipkillNoEcc);
  const auto secded = study.weak_scaling(Strategy::kPartialChipkillSecded);
  // P_CK+P_SD: fewer errors reach ABFT (1300 vs 5000 FIT/Mbit).
  EXPECT_LT(secded[0].expected_errors, no_ecc[0].expected_errors);
  EXPECT_LT(secded[0].recovery_cost_kj, no_ecc[0].recovery_cost_kj);
}

TEST(Scaling, StrongScalingShrinksPerProcessRecoveryCost) {
  sim::ScalingOptions opt;
  opt.process_counts = {100, 400, 1600};
  opt.base_dim = 192;
  opt.iterations = 3;
  opt.platform = small_opts(Strategy::kPartialChipkillNoEcc);
  sim::ScalingStudy study(opt);
  const auto pts = study.strong_scaling(Strategy::kPartialChipkillNoEcc);
  ASSERT_EQ(pts.size(), 3u);
  // Recovery per error gets cheaper; expected errors per process shrink
  // too, so total recovery cost must not blow up with scale.
  EXPECT_LT(pts[2].recovery_cost_kj / pts[2].processes,
            pts[0].recovery_cost_kj / pts[0].processes * 1.01);
}

}  // namespace
}  // namespace abftecc

// The paper's headline flow, end to end on the simulated node:
//
//   1. ABFT allocates its data with malloc_ecc -> the OS maps contiguous
//      frames and programs the memory controller's ECC registers so the
//      region runs under *relaxed* ECC (SECDED) while the rest of the node
//      keeps chipkill.
//   2. A DRAM chip fails under an ABFT-protected cache line.
//   3. On the next fill the SECDED decoder detects but cannot correct;
//      the MC records the fault site in its error registers and raises an
//      interrupt.
//   4. The OS handler reads the memory-mapped registers, derives the
//      physical address, sees the page is ABFT-protected, and exposes the
//      *virtual* address through the kernel/user shared log (sysfs-style)
//      instead of panicking.
//   5. The ABFT runtime maps the address to a matrix element and FT-DGEMM
//      repairs exactly that element from one column checksum -- the
//      "simplified verification" of Section 3.2.2.
//
// Then the recovery escalation ladder for the faults steps 1-5 cannot
// absorb (paper Section 4, Case 4):
//
//   6. A multi-error pattern ABFT cannot locate -> tier 2: the damaged
//      blocks are recomputed from the pristine inputs.
//   7. An uncorrectable error OUTSIDE ABFT's checksum space -> the OS
//      offers it to the ladder instead of panicking; the manager demands
//      a rollback to the last checksummed checkpoint and restores it.
//   8. A checkpoint whose storage itself rotted -> the Fletcher-64
//      verification refuses the restore; the corruption is detected,
//      never copied back over live data.
//
//   build/examples/cooperative_recovery
#include <algorithm>
#include <cstdio>
#include <string>

#include "abft/ft_dgemm.hpp"
#include "abft/runtime.hpp"
#include "fault/injector.hpp"
#include "os/os.hpp"
#include "recovery/manager.hpp"
#include "sim/platform.hpp"

int main() {
  using namespace abftecc;
  constexpr std::size_t n = 96;
  // Kernel inputs live in plain (chipkill) node memory, like every datum a
  // simulated kernel references.
  auto on_node = [](sim::Session& node, const Matrix& m, const char* name) {
    const MatrixView v = node.plain_matrix(m.rows(), m.cols(), name);
    std::copy_n(m.data(), m.size(), v.data());
    return v;
  };

  // A node behind the Session facade: memory system (chipkill default),
  // OS, ABFT runtime, tap, injector -- wired as P_CK+P_SD, the paper's
  // cooperative design point.
  sim::Session s = sim::Session::Builder()
                       .strategy(sim::Strategy::kPartialChipkillSecded)
                       .hardware_assisted()
                       .build();

  std::printf("[1] malloc_ecc: ABFT structures under SECDED, rest chipkill\n");
  abft::FtDgemm::Buffers buf{s.abft_matrix(n + 1, n, "Ac"),
                             s.abft_matrix(n, n + 1, "Br"),
                             s.abft_matrix(n + 1, n + 1, "Cf")};
  std::printf("    MC ECC registers in use: %u of %u\n",
              s.memory().controller().ranges_in_use(),
              memsim::MemoryController::kMaxRanges);

  Rng rng(11);
  Matrix a = Matrix::random(n, n, rng), b = Matrix::random(n, n, rng);
  abft::FtOptions opt;
  opt.hardware_assisted = true;  // Section 3.2.2 cooperative mode
  abft::FtDgemm ft(on_node(s, a, "A"), on_node(s, b, "B"), buf, opt,
                   &s.runtime());
  ft.run(s.backend());
  std::printf("    multiply finished (%llu hw-checks, no errors)\n",
              static_cast<unsigned long long>(ft.stats().verifications));

  // Push the result to DRAM so the fault lands in memory, not a cache.
  s.flush_caches();

  std::printf("[2] chip failure under C(5,7)'s cache line (2 stuck DQ lines)\n");
  double* victim = &buf.cf(5, 7);
  const auto vphys = *s.os().virt_to_phys(victim);
  s.injector().inject_chip_kill(vphys, 4, 0x3);

  std::printf("[3] application touches the line -> SECDED detects, cannot "
              "correct\n");
  s.memory().access(vphys, memsim::AccessKind::kRead);
  std::printf("    MC: %llu uncorrectable, error registers hold the fault "
              "site\n",
              static_cast<unsigned long long>(
                  s.memory().controller().uncorrectable_count()));

  std::printf("[4] OS interrupt handler: ABFT page -> expose, don't panic "
              "(panics: %llu)\n",
              static_cast<unsigned long long>(s.os().panic_count()));

  std::printf("[5] ABFT simplified verification repairs the element\n");
  const abft::FtStatus st = ft.verify_and_correct(s.backend());
  Matrix ref(n, n);
  linalg::gemm(1.0, a.view(), b.view(), 0.0, ref.view());
  const double err = max_abs_diff(ft.result(), ref.view());
  std::printf("    status: %s, notifications used: %llu, max error vs plain "
              "gemm: %.3g\n",
              st == abft::FtStatus::kOk ? "ok" : "corrected",
              static_cast<unsigned long long>(
                  ft.stats().hw_notifications_used),
              err);
  std::printf("%s\n", err < 1e-8 ? "cooperative recovery: SUCCESS"
                                 : "cooperative recovery: FAILED");
  if (err >= 1e-8) return 1;

  // --- the escalation ladder (Case 4) ------------------------------------

  std::printf("\n[6] ladder tier 2: ambiguous 2x2 error grid mid-multiply\n");
  sim::Session s2 = sim::Session::Builder()
                        .strategy(sim::Strategy::kPartialChipkillSecded)
                        .ladder()
                        .build();
  recovery::RecoveryManager* rm = s2.recovery();
  abft::FtDgemm::Buffers buf2{s2.abft_matrix(n + 1, n, "Ac2"),
                              s2.abft_matrix(n, n + 1, "Br2"),
                              s2.abft_matrix(n + 1, n + 1, "Cf2")};
  Rng rng2(12);
  Matrix a2 = Matrix::random(n, n, rng2), b2 = Matrix::random(n, n, rng2);
  abft::FtDgemm ft2(on_node(s2, a2, "A2"), on_node(s2, b2, "B2"), buf2, {},
                    &s2.runtime());
  // Four equal hits forming a grid: row/column residual pairing is
  // ambiguous, so plain ABFT correction refuses (Case 4) and the ladder's
  // block recompute from the pristine inputs takes over.
  s2.tap_context().set_ref_trigger(120000, [&] {
    buf2.cf(10, 20) += 1000.0;
    buf2.cf(10, 30) += 1000.0;
    buf2.cf(40, 20) += 1000.0;
    buf2.cf(40, 30) += 1000.0;
  });
  const abft::FtStatus st2 = ft2.run(s2.backend());
  Matrix ref2(n, n);
  linalg::gemm(1.0, a2.view(), b2.view(), 0.0, ref2.view());
  const double err2 = max_abs_diff(ft2.result(), ref2.view());
  std::printf("    status: %s, block recomputes: %llu, max error: %.3g\n",
              std::string(to_string(st2)).c_str(),
              static_cast<unsigned long long>(rm->stats().recomputes), err2);

  std::printf("[7] ladder tier 3: uncorrectable OUTSIDE ABFT -> rollback, "
              "not panic\n");
  // A plain (chipkill) scratch region, checkpointed by the ladder.
  MatrixView scratch = s2.plain_matrix(16, 16, "solver.state");
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t j = 0; j < 16; ++j) scratch(i, j) = 1.0;
  const auto sid = rm->store().track("solver.state", scratch.data(),
                                     16 * 16 * sizeof(double));
  rm->commit(1);
  // Two flips in different bytes of one word: two chipkill symbols, the
  // guaranteed detected-uncorrectable pattern for the default scheme.
  const auto sphys = *s2.os().virt_to_phys(scratch.data());
  s2.flush_caches();
  s2.injector().inject_bit(sphys, 3);
  s2.injector().inject_bit(sphys + 3, 5);
  s2.memory().access(sphys, memsim::AccessKind::kRead);
  std::printf("    panics: %llu, escalations: %llu, rollback demanded: %s\n",
              static_cast<unsigned long long>(s2.os().panic_count()),
              static_cast<unsigned long long>(s2.os().escalations()),
              rm->rollback_demanded() ? "yes" : "no");
  bool ok7 = s2.os().panic_count() == 0 && rm->rollback_demanded();
  if (ok7 && rm->try_rollback() &&
      rm->rollback() == recovery::RestoreResult::kOk) {
    ok7 = scratch(0, 0) == 1.0;
    std::printf("    restored from checkpoint, corrupted word healed: %s\n",
                ok7 ? "yes" : "no");
  } else {
    ok7 = false;
  }

  std::printf("[8] a rotten checkpoint is detected, never restored\n");
  rm->commit(2);
  rm->store().snapshot_bytes(sid)[17] ^= std::byte{0x20};  // storage decay
  scratch(2, 2) = -4.0;  // live corruption a restore would want to undo
  const recovery::RestoreResult rr = rm->store().restore();
  const bool ok8 =
      rr == recovery::RestoreResult::kCorrupted && scratch(2, 2) == -4.0;
  std::printf("    restore(): %s, live data untouched: %s\n",
              std::string(to_string(rr)).c_str(),
              scratch(2, 2) == -4.0 ? "yes" : "no");
  rm->store().untrack(sid);

  const bool ladder_ok = err2 < 1e-6 && rm->stats().recomputes > 0 &&
                         ok7 && ok8;
  std::printf("%s\n", ladder_ok ? "escalation ladder: SUCCESS"
                                : "escalation ladder: FAILED");
  return ladder_ok ? 0 : 1;
}

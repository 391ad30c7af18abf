// Ablation (Section 2.1): single vs dual ("sophisticated") checksum
// vectors for FT-DGEMM.
//
// The second weighted checksum row/column costs extra encode + verify work
// but upgrades the correction capability: two errors per column and
// row/column grid patterns become solvable. This harness measures both
// sides -- the overhead on clean runs and the survival rate under
// increasingly hostile random multi-error injections.
#include <chrono>

#include "abft/ft_dgemm.hpp"
#include "abft/ft_dgemm_dual.hpp"
#include "bench/report.hpp"
#include "common/rng.hpp"
#include "linalg/blas.hpp"

namespace {

using namespace abftecc;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Survival {
  int corrected = 0;
  int refused = 0;
  int silent_wrong = 0;
};

template <typename Ft, typename MakeBuffers>
Survival survive(std::size_t n, unsigned errors_per_trial, int trials,
                 MakeBuffers make) {
  Survival out;
  for (int t = 0; t < trials; ++t) {
    Rng rng(10 * errors_per_trial + t);
    Matrix a = Matrix::random(n, n, rng), b = Matrix::random(n, n, rng);
    auto bufs = make();
    Ft ft(a.view(), b.view(), bufs.buffers());
    NativeBackend be;
    if (ft.run(be) != abft::FtStatus::kOk) continue;
    Matrix ref(n, n);
    linalg::gemm(1.0, a.view(), b.view(), 0.0, ref.view());
    for (unsigned e = 0; e < errors_per_trial; ++e)
      bufs.cf(rng.below(n), rng.below(n)) +=
          rng.uniform(1.0, 40.0) * (rng.below(2) ? 1 : -1);
    const auto st = ft.verify_and_correct(be);
    const bool ok = max_abs_diff(ft.result(), ref.view()) < 1e-6;
    if (st == abft::FtStatus::kUncorrectable)
      ++out.refused;
    else if (ok)
      ++out.corrected;
    else
      ++out.silent_wrong;
  }
  return out;
}

struct SingleBufs {
  Matrix ac, br, cf;
  explicit SingleBufs(std::size_t n)
      : ac(n + 1, n), br(n, n + 1), cf(n + 1, n + 1) {}
  abft::FtDgemm::Buffers buffers() {
    return {ac.view(), br.view(), cf.view()};
  }
};

struct DualBufs {
  Matrix ac, br, cf;
  explicit DualBufs(std::size_t n)
      : ac(n + 2, n), br(n, n + 2), cf(n + 2, n + 2) {}
  abft::FtDgemmDual::Buffers buffers() {
    return {ac.view(), br.view(), cf.view()};
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace abftecc;
  bench::Report rep(argc, argv,
                    "Ablation: single vs dual checksum vectors (FT-DGEMM)",
                    "SC'13 Sec. 2.1 'sophisticated checksum vectors'");
  const std::size_t n = 64;

  // Clean-run overhead.
  {
    Rng rng(1);
    Matrix a = Matrix::random(n * 4, n * 4, rng);
    Matrix b = Matrix::random(n * 4, n * 4, rng);
    double t_single = 0, t_dual = 0;
    NativeBackend be;
    // r == 0 is a discarded warm-up round (first-touch page faults and
    // cache warm-up would otherwise penalize whichever variant runs first).
    for (int r = 0; r < 4; ++r) {
      const bool warmup = r == 0;
      Matrix ac1(4 * n + 1, 4 * n), br1(4 * n, 4 * n + 1),
          cf1(4 * n + 1, 4 * n + 1);
      abft::FtDgemm single(a.view(), b.view(),
                           {ac1.view(), br1.view(), cf1.view()});
      double t0 = now_seconds();
      single.run(be);
      if (!warmup) t_single += now_seconds() - t0;
      Matrix ac2(4 * n + 2, 4 * n), br2(4 * n, 4 * n + 2),
          cf2(4 * n + 2, 4 * n + 2);
      abft::FtDgemmDual dual(a.view(), b.view(),
                             {ac2.view(), br2.view(), cf2.view()});
      t0 = now_seconds();
      dual.run(be);
      if (!warmup) t_dual += now_seconds() - t0;
    }
    std::printf("clean-run time at n=%zu: single %.3fs, dual %.3fs (+%s)\n\n",
                4 * n, t_single, t_dual,
                bench::fmt_pct(t_dual / t_single - 1.0).c_str());
    rep.scalar("clean_run_dual_overhead", t_dual / t_single - 1.0);
  }

  bench::row({"errors", "scheme", "corrected", "refused", "silent-wrong"});
  for (const unsigned errors : {1u, 2u, 3u, 4u, 6u}) {
    const auto s = survive<abft::FtDgemm>(
        n, errors, 40, [&] { return SingleBufs(n); });
    const auto d = survive<abft::FtDgemmDual>(
        n, errors, 40, [&] { return DualBufs(n); });
    bench::row({std::to_string(errors), "single", std::to_string(s.corrected),
                std::to_string(s.refused), std::to_string(s.silent_wrong)});
    bench::row({"", "dual", std::to_string(d.corrected),
                std::to_string(d.refused), std::to_string(d.silent_wrong)});
    const std::string key = "errors" + std::to_string(errors);
    rep.scalar(key + ".single_corrected", s.corrected);
    rep.scalar(key + ".single_silent_wrong", s.silent_wrong);
    rep.scalar(key + ".dual_corrected", d.corrected);
    rep.scalar(key + ".dual_silent_wrong", d.silent_wrong);
  }
  std::printf(
      "\nexpected: dual corrects strictly more multi-error trials at "
      "comparable clean-run cost; NEITHER scheme reports a silently wrong "
      "result (refusal is the safe failure mode).\n");
  return 0;
}

// Native-mode FT overhead: the fused FT-DGEMM (checksum encode/verify
// woven into the packed SIMD GEMM sweep, see abft/ft_dgemm_fused.hpp)
// against the same unprotected native GEMM, and that GEMM against one
// core's FMA peak. Wall-clock, no simulator: this is the `--backend native`
// execution mode measured on real silicon.
//
// Each size runs kReps interleaved (plain, fused) pairs after one untimed
// warm-up pair; every figure is the median over the reps, with its
// interquartile range (`*_iqr_<n>`) beside it. Headline scalars, gated by
// tools/benchgate.py on hosts that dispatch the AVX2/FMA kernel:
//   overhead_ratio_2048 = median over reps of fused/plain - 1   (< 10%)
//   peak_frac_1024      = plain_gflops_1024 / fma_peak_gflops   (>= 0.5)
// Hosts on the scalar fallback skip both gates with a note; the numbers
// are still reported. Wall-clock numbers are NOT part of the baseline
// snapshot compare: they move with the host.
#include <cstdio>
#include <vector>

#include "abft/ft_dgemm_fused.hpp"
#include "bench/report.hpp"
#include "common/backend.hpp"
#include "common/rng.hpp"
#include "linalg/gemm_native.hpp"

namespace abftecc {
namespace {

constexpr int kReps = 9;

double gflops(std::size_t n, double seconds) {
  return 2.0 * static_cast<double>(n) * static_cast<double>(n) *
         static_cast<double>(n) / seconds * 1e-9;
}

/// One timed run of `fn`.
template <typename Fn>
double timed_seconds(Fn&& fn) {
  const TickClock wall;
  const std::uint64_t t0 = wall.now();
  fn();
  return wall.seconds_since(t0);
}

/// Reports `name_<n>` = median of `v` and `name_iqr_<n>` = its IQR;
/// returns the median.
double summarize(bench::Report& rep, const char* name, std::size_t n,
                 const std::vector<double>& v) {
  const double med = bench::quantile(v, 0.5);
  char key[64];
  std::snprintf(key, sizeof key, "%s_%zu", name, n);
  rep.scalar(key, med);
  std::snprintf(key, sizeof key, "%s_iqr_%zu", name, n);
  rep.scalar(key, bench::quantile(v, 0.75) - bench::quantile(v, 0.25));
  return med;
}

void measure(bench::Report& rep, std::size_t n, double fma_peak) {
  Rng rng(n);
  Matrix a = Matrix::random(n, n, rng), b = Matrix::random(n, n, rng);
  Matrix c(n, n);

  // Pairing plain and fused rep by rep keeps a throughput dip on a shared
  // host from landing on one side of the ratio; the ratio is taken per pair,
  // and the pair's order alternates so neither side always runs second.
  std::vector<double> plain_s, fused_s, ratio, encode_s, verify_s;
  abft::FtStats stats;
  NativeBackend be;  ///< shared across reps; counters recorded once below
  for (int r = -1; r < kReps; ++r) {
    abft::FtStatus status = abft::FtStatus::kOk;
    const auto run_plain = [&] {
      return timed_seconds([&] {
        linalg::gemm_native(1.0, a.view(), b.view(), 0.0, c.view());
      });
    };
    const auto run_fused = [&] {
      return timed_seconds([&] {
        abft::FtDgemmFused ft(a.view(), b.view(), c.view());
        status = ft.run(be);
        stats = ft.stats();
      });
    };
    double plain = 0.0, fused = 0.0;
    if (r % 2 == 0) {
      plain = run_plain();
      fused = run_fused();
    } else {
      fused = run_fused();
      plain = run_plain();
    }
    if (status != abft::FtStatus::kOk) {
      std::fprintf(stderr, "ftgemm_native: fused run at n=%zu returned %s\n",
                   n, std::string(abft::to_string(status)).c_str());
      std::exit(1);
    }
    if (r < 0) continue;  // warm-up: first touch of C and the pack buffers
    plain_s.push_back(plain);
    fused_s.push_back(fused);
    ratio.push_back(fused / plain - 1.0);
    encode_s.push_back(stats.encode_seconds);
    verify_s.push_back(stats.verify_seconds);
  }

  const double plain = summarize(rep, "unprotected_seconds", n, plain_s);
  const double fused = summarize(rep, "fused_seconds", n, fused_s);
  const double overhead = summarize(rep, "overhead_ratio", n, ratio);
  summarize(rep, "ft_encode_seconds", n, encode_s);
  summarize(rep, "ft_verify_seconds", n, verify_s);
  char key[64];
  std::snprintf(key, sizeof key, "plain_gflops_%zu", n);
  rep.scalar(key, gflops(n, plain));
  std::snprintf(key, sizeof key, "peak_frac_%zu", n);
  rep.scalar(key, gflops(n, plain) / fma_peak);

  // Full schema-v1 run row (same shape sim harnesses emit, with the
  // sim-only sections zero), so compare_runs.py reads native reports and
  // the FT verify/repair counters land in `runs[].ft`. Also feed the
  // registry so --metrics-out exposes native runs.
  sim::RunMetrics m;
  m.kernel = sim::Kernel::kDgemm;
  m.strategy = sim::Strategy::kNoEcc;
  m.backend = BackendMode::kNative;
  m.seconds = fused;
  m.ft = stats;
  m.status = abft::FtStatus::kOk;
  m.abft_bytes = n * n * sizeof(double);
  m.total_bytes = 3 * n * n * sizeof(double);
  char label[64];
  std::snprintf(label, sizeof label, "fused-native-%zu", n);
  rep.add_run(label, m);
  sim::record_native_metrics(be.counters(), stats);

  bench::row({std::to_string(n), bench::fmt(gflops(n, plain), 2),
              bench::fmt_pct(gflops(n, plain) / fma_peak),
              bench::fmt(gflops(n, fused), 2), bench::fmt_pct(overhead),
              bench::fmt_pct(bench::quantile(ratio, 0.75) -
                             bench::quantile(ratio, 0.25))});
}

}  // namespace
}  // namespace abftecc

int main(int argc, char** argv) {
  using namespace abftecc;
  bench::Report rep(argc, argv, "ftgemm_native",
                    "native fused FT-GEMM overhead (Section 2.1 at "
                    "hardware speed)");
  rep.note("simd_kernel", linalg::native_kernel_name());
  const double fma_peak = linalg::native_fma_peak_gflops();
  rep.scalar("fma_peak_gflops", fma_peak);
  std::printf("native kernel: %s, FMA peak %.2f GF/s, median of %d reps\n\n",
              linalg::native_kernel_name(), fma_peak, kReps);
  bench::row({"n", "plain GF/s", "of peak", "fused GF/s", "FT overhead",
              "overhead IQR"});

  measure(rep, 1024, fma_peak);
  measure(rep, 2048, fma_peak);
  return 0;
}

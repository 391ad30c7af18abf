// Google-benchmark microbenchmarks for the substrate hot paths: the BLAS
// kernels the ABFT algorithms are built on, the bit-level ECC codecs the
// memory controller runs per line, and the simulator's per-access cost.
//
// `--json <path>` (consumed before google-benchmark sees the argv) writes
// a schema-v1 report for the NATIVE rows -- one timed gemm_native /
// FtDgemmFused pair per size with full FT counters -- so compare_runs.py
// reads microbenchmark output the same way it reads the sim harnesses'.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "abft/ft_dgemm_fused.hpp"
#include "bench/report.hpp"
#include "common/backend.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "ecc/chipkill.hpp"
#include "ecc/secded.hpp"
#include "linalg/blas.hpp"
#include "linalg/factor.hpp"
#include "linalg/gemm_native.hpp"
#include "memsim/system.hpp"

namespace abftecc {
namespace {

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Matrix a = Matrix::random(n, n, rng), b = Matrix::random(n, n, rng), c(n, n);
  for (auto _ : state) {
    linalg::gemm(1.0, a.view(), b.view(), 0.0, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_Potrf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  Matrix a = Matrix::random_spd(n, rng);
  for (auto _ : state) {
    Matrix w = a;
    linalg::potrf(w.view());
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_Potrf)->Arg(64)->Arg(128)->Arg(256);

void BM_Gemv(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  Matrix a = Matrix::random(n, n, rng);
  std::vector<double> x(n, 1.0), y(n);
  for (auto _ : state) {
    linalg::gemv(1.0, a.view(), x, 0.0, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n * sizeof(double));
}
BENCHMARK(BM_Gemv)->Arg(256)->Arg(1024);

void BM_SecdedEncode(benchmark::State& state) {
  Rng rng(4);
  std::uint64_t v = rng();
  for (auto _ : state) {
    auto w = ecc::Secded::encode(v);
    benchmark::DoNotOptimize(w);
    v = v * 6364136223846793005ull + 1;
  }
}
BENCHMARK(BM_SecdedEncode);

void BM_SecdedDecodeCorrect(benchmark::State& state) {
  Rng rng(5);
  auto w = ecc::Secded::encode(rng());
  ecc::Secded::flip_bit(w, 13);
  for (auto _ : state) {
    auto copy = w;
    benchmark::DoNotOptimize(ecc::Secded::decode(copy));
  }
}
BENCHMARK(BM_SecdedDecodeCorrect);

void BM_ChipkillEncode(benchmark::State& state) {
  Rng rng(6);
  std::array<std::uint8_t, ecc::Chipkill::kDataSymbols> d{};
  for (auto& v : d) v = static_cast<std::uint8_t>(rng.below(256));
  for (auto _ : state) {
    auto cw = ecc::Chipkill::encode(d);
    benchmark::DoNotOptimize(cw);
  }
}
BENCHMARK(BM_ChipkillEncode);

void BM_ChipkillDecodeCorrect(benchmark::State& state) {
  Rng rng(7);
  std::array<std::uint8_t, ecc::Chipkill::kDataSymbols> d{};
  for (auto& v : d) v = static_cast<std::uint8_t>(rng.below(256));
  auto cw = ecc::Chipkill::encode(d);
  cw[9] ^= 0x5A;
  for (auto _ : state) {
    auto copy = cw;
    benchmark::DoNotOptimize(ecc::Chipkill::decode(copy));
  }
}
BENCHMARK(BM_ChipkillDecodeCorrect);

// --- native backend entries -------------------------------------------------
// Unprotected packed native GEMM vs the fused FT-DGEMM, at the sizes the
// benchgate overhead gate uses. Registered at runtime so the rows carry
// the dispatched kernel's name and hosts without AVX2/FMA simply skip the
// avx2-labeled rows instead of reporting scalar numbers under that label.

void BM_GemmNative(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  Matrix a = Matrix::random(n, n, rng), b = Matrix::random(n, n, rng), c(n, n);
  for (auto _ : state) {
    linalg::gemm_native(1.0, a.view(), b.view(), 0.0, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          n * n * n);
}

void BM_FtDgemmFused(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  Matrix a = Matrix::random(n, n, rng), b = Matrix::random(n, n, rng), c(n, n);
  for (auto _ : state) {
    NativeBackend be;
    abft::FtDgemmFused ft(a.view(), b.view(), c.view());
    if (ft.run(be) != abft::FtStatus::kOk)
      state.SkipWithError("fused run failed");
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          n * n * n);
}

const int kNativeRegistered = [] {
  if (!linalg::native_simd_available()) return 0;
  const std::string tag = linalg::native_kernel_name();
  for (const std::int64_t n : {1024, 2048}) {
    benchmark::RegisterBenchmark(("BM_GemmNative/" + tag).c_str(),
                                 BM_GemmNative)
        ->Arg(n);
    benchmark::RegisterBenchmark(("BM_FtDgemmFused/" + tag).c_str(),
                                 BM_FtDgemmFused)
        ->Arg(n);
  }
  return 1;
}();

void BM_SimulatedAccess(benchmark::State& state) {
  memsim::MemorySystem sys(memsim::SystemConfig::scaled(8),
                           ecc::Scheme::kChipkill);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    sys.access(addr, memsim::AccessKind::kRead);
    addr = (addr + 8) % (64 << 20);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatedAccess);

// --- schema-v1 report mode --------------------------------------------------
// When `--json <path>` (or `--metrics-out <path>`) is present we time the
// native rows once ourselves -- google-benchmark owns its own timing loop
// and offers no hook for per-run FT counters -- and emit the same report
// shape the sim harnesses write: runs[] with backend="native" and real
// verify/locate/repair counters, readable by compare_runs.py.

void write_native_report(int argc, char** argv) {
  bench::Report rep(argc, argv, "micro_kernels",
                    "native microbenchmark rows (substrate hot paths)");
  rep.note("simd_kernel", linalg::native_kernel_name());
  rep.note("simd_available",
           linalg::native_simd_available() ? "true" : "false");
  for (const std::size_t n : {std::size_t{256}, std::size_t{512}}) {
    Rng rng(10);
    Matrix a = Matrix::random(n, n, rng), b = Matrix::random(n, n, rng),
           c(n, n);
    NativeBackend be;

    TickClock wall;
    std::uint64_t t0 = wall.now();
    linalg::gemm_native(1.0, a.view(), b.view(), 0.0, c.view());
    const double plain_s = wall.seconds_since(t0);

    abft::FtDgemmFused ft(a.view(), b.view(), c.view());
    t0 = wall.now();
    const abft::FtStatus status = ft.run(be);
    const double fused_s = wall.seconds_since(t0);
    const abft::FtStats stats = ft.stats();

    sim::RunMetrics plain;
    plain.kernel = sim::Kernel::kDgemm;
    plain.strategy = sim::Strategy::kNoEcc;
    plain.backend = BackendMode::kNative;
    plain.seconds = plain_s;
    plain.total_bytes = 3 * n * n * sizeof(double);
    rep.add_run("gemm-native-" + std::to_string(n), plain);

    sim::RunMetrics fused;
    fused.kernel = sim::Kernel::kDgemm;
    fused.strategy = sim::Strategy::kNoEcc;
    fused.backend = BackendMode::kNative;
    fused.seconds = fused_s;
    fused.ft = stats;
    fused.status = status;
    fused.abft_bytes = n * n * sizeof(double);
    fused.total_bytes = 3 * n * n * sizeof(double);
    rep.add_run("fused-native-" + std::to_string(n), fused);

    char key[64];
    std::snprintf(key, sizeof key, "overhead_ratio_%zu", n);
    rep.scalar(key, plain_s > 0.0 ? fused_s / plain_s - 1.0 : 0.0);
    sim::record_native_metrics(be.counters(), stats);
  }
}

}  // namespace
}  // namespace abftecc

int main(int argc, char** argv) {
  // Split the argv: report flags (--json/--metrics-out and their values) go
  // to bench::Report, everything else goes to google-benchmark untouched.
  std::vector<char*> bench_argv{argv[0]};
  std::vector<char*> report_argv{argv[0]};
  bool want_report = false;
  for (int i = 1; i < argc; ++i) {
    const bool is_report_flag = std::strcmp(argv[i], "--json") == 0 ||
                                std::strcmp(argv[i], "--metrics-out") == 0;
    if (is_report_flag && i + 1 < argc) {
      want_report = true;
      report_argv.push_back(argv[i]);
      report_argv.push_back(argv[++i]);
    } else {
      bench_argv.push_back(argv[i]);
    }
  }
  if (want_report) {
    abftecc::write_native_report(static_cast<int>(report_argv.size()),
                                 report_argv.data());
  }

  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

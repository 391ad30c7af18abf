// Register-only FMA loop: the single-core roofline that native GEMM
// throughput is judged against. Ten independent accumulator chains cover
// the FMA latency on two pipes, so the loop is throughput-bound.
#include <algorithm>
#include <cmath>

#include "perfbench.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#define PERFBENCH_FMA_TARGET __attribute__((target("avx2,fma")))
#endif

namespace perfbench {

namespace {

constexpr int kChains = 10;
constexpr long kIters = 20'000'000;

#ifdef PERFBENCH_FMA_TARGET
PERFBENCH_FMA_TARGET double fma_loop_avx2(double seed) {
  __m256d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_pd(seed + c);
  const __m256d mul = _mm256_set1_pd(0.999999);
  const __m256d add = _mm256_set1_pd(1e-7);
  for (long i = 0; i < kIters; ++i)
    for (int c = 0; c < kChains; ++c)
      acc[c] = _mm256_fmadd_pd(acc[c], mul, add);
  __m256d s = acc[0];
  for (int c = 1; c < kChains; ++c) s = _mm256_add_pd(s, acc[c]);
  alignas(32) double out[4];
  _mm256_store_pd(out, s);
  return out[0] + out[1] + out[2] + out[3];
}
#endif

double fma_loop_scalar(double seed, long iters) {
  double acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = seed + c;
  for (long i = 0; i < iters; ++i)
    for (int c = 0; c < kChains; ++c) acc[c] = std::fma(acc[c], 0.999999, 1e-7);
  double s = 0.0;
  for (double a : acc) s += a;
  return s;
}

}  // namespace

double fma_peak_gflops() {
  // Best of three: the peak is what the core can reach, so interference
  // from other processes only lowers a sample.
  double best = 0.0;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    double flops = 0.0;
#ifdef PERFBENCH_FMA_TARGET
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      sink = sink + fma_loop_avx2(1.0 + rep);
      flops = 2.0 * 4.0 * kChains * static_cast<double>(kIters);
    }
#endif
    if (flops == 0.0) {
      const long iters = kIters / 4;
      sink = sink + fma_loop_scalar(1.0 + rep, iters);
      flops = 2.0 * kChains * static_cast<double>(iters);
    }
    best = std::max(best, flops / seconds_since(t0) / 1e9);
  }
  return best;
}

}  // namespace perfbench

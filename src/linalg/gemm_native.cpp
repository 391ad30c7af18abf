#include "linalg/gemm_native.hpp"

#include <algorithm>
#include <chrono>

#include "linalg/blas.hpp"

namespace abftecc::linalg {

namespace detail {

void gemm_native_scalar(double alpha, ConstMatrixView a, ConstMatrixView b,
                        double beta, MatrixView c) {
  // The Tap-templated blocked kernel with NullTap is already the scalar
  // blocked GEMM: instrumentation compiles to nothing.
  gemm(alpha, a, b, beta, c, NullTap{});
}

namespace {

/// Scalar twin of the AVX2 peak loop: one lane, multiply then add (the
/// baseline ISA has no fused form).
double fma_peak_loop_scalar(long iters, double& sink) {
  constexpr int kChains = 12;
  double acc[kChains];
  for (int i = 0; i < kChains; ++i) acc[i] = 1.0 + i;
  for (long it = 0; it < iters; ++it)
    for (double& x : acc) x = x * 0.999999 + 1e-7;
  sink = 0.0;
  for (const double x : acc) sink += x;
  return 2.0 * kChains * static_cast<double>(iters);
}

}  // namespace

}  // namespace detail

bool native_simd_available() {
#ifdef ABFTECC_HAVE_AVX2_TU
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return false;
#endif
}

double native_fma_peak_gflops() {
  constexpr long kIters = 10'000'000;
  auto* loop = &detail::fma_peak_loop_scalar;
#ifdef ABFTECC_HAVE_AVX2_TU
  if (native_simd_available()) loop = &detail::fma_peak_loop_avx2;
#endif
  // Best of three: the peak is what the core can reach, so load from other
  // processes only lowers a sample.
  double best = 0.0, sink = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const double flops = loop(kIters, sink);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    best = std::max(best, flops / dt.count() * 1e-9);
  }
  return sink > 0.0 ? best : 0.0;  // uses the result, so the loop is kept
}

const char* native_kernel_name() {
  return native_simd_available() ? "avx2-fma" : "scalar-blocked";
}

void gemm_native(double alpha, ConstMatrixView a, ConstMatrixView b,
                 double beta, MatrixView c) {
  ABFTECC_REQUIRE(a.rows() == c.rows() && b.cols() == c.cols() &&
                  a.cols() == b.rows());
#ifdef ABFTECC_HAVE_AVX2_TU
  if (native_simd_available()) {
    detail::gemm_native_avx2(alpha, a, b, beta, c);
    return;
  }
#endif
  detail::gemm_native_scalar(alpha, a, b, beta, c);
}

}  // namespace abftecc::linalg

// Native-speed blocked DGEMM for the NativeBackend path (common/backend.hpp).
//
// Unlike the Tap-templated linalg::gemm, these kernels never report
// per-element references -- they exist to run at hardware speed. The AVX2+FMA
// variant lives in its own translation unit compiled with -mavx2 -mfma and is
// selected at runtime with __builtin_cpu_supports, so one binary serves both
// ISAs; hosts without AVX2 fall back to the scalar blocked kernel.
#pragma once

#include "common/matrix.hpp"

namespace abftecc::linalg {

/// True when the AVX2+FMA microkernel was built in AND the running CPU
/// supports it.
[[nodiscard]] bool native_simd_available();

/// Human-readable name of the kernel gemm_native dispatches to:
/// "avx2-fma" or "scalar-blocked". Bench reports carry this so CI on
/// non-AVX2 hosts can skip SIMD-specific expectations.
[[nodiscard]] const char* native_kernel_name();

/// c <- alpha * a * b + beta * c (column-major, views may be sub-blocks).
/// As in BLAS dgemm, beta == 0 overwrites c without reading it, and
/// alpha == 0 reads neither a nor b.
void gemm_native(double alpha, ConstMatrixView a, ConstMatrixView b,
                 double beta, MatrixView c);

/// One core's floating-point peak in GF/s for the ISA gemm_native runs on:
/// a register-only loop of independent multiply-adds (4-wide FMA on the
/// AVX2 path, scalar otherwise), best of three ~25 ms runs. The roofline
/// native GEMM throughput is judged against.
[[nodiscard]] double native_fma_peak_gflops();

namespace detail {
void gemm_native_scalar(double alpha, ConstMatrixView a, ConstMatrixView b,
                        double beta, MatrixView c);
#ifdef ABFTECC_HAVE_AVX2_TU
void gemm_native_avx2(double alpha, ConstMatrixView a, ConstMatrixView b,
                      double beta, MatrixView c);
/// Runs `iters` steps of the AVX2 FMA peak loop, leaves its result in
/// `sink` and returns its flop count.
double fma_peak_loop_avx2(long iters, double& sink);
#endif
}  // namespace detail

}  // namespace abftecc::linalg

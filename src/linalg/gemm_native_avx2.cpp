// AVX2+FMA packed DGEMM (Goto/BLIS structure). This TU is the only one
// compiled with -mavx2 -mfma; it must only be entered through gemm_native()'s
// runtime dispatch (see gemm_native.cpp), never called directly on a host
// without the ISA.
//
// Loop nest, outermost first:
//   jc over n in kNc columns   -- one packed B block (kKc x kNc) per pc
//   pc over k in kKc           -- B block packed once, alpha folded in
//   ic over m in kMc rows      -- A block packed into kMr-row micro-panels
//   jr over the block in kNr   -- one B micro-panel stays in L1
//   ir over the block in kMr   -- 8x6 register tile streams the A block (L2)
// Each (ic, jc, pc) tile is accumulated in registers over the whole kKc
// depth and added into C once; the first pc block applies beta.
#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <memory>

#include "linalg/gemm_native.hpp"

namespace abftecc::linalg::detail {

namespace {

// Register tile: 8 rows x 6 columns of C in 12 ymm accumulators, leaving
// two registers for the A column and one for the B broadcast.
constexpr std::size_t kMr = 8;
constexpr std::size_t kNr = 6;
// Depth of one packed block. Equal to FusedOptions::panel, so each fused
// panel call is a single pc block and C is read and written once per call.
constexpr std::size_t kKc = 256;
// A block kMc x kKc = 192 KiB: fits in L2 beside the streamed C tiles.
constexpr std::size_t kMc = 96;
// B block kKc x kNc: 1 MiB (plus the padded last micro-panel), L2/L3
// resident. Equal to FusedOptions::jblock, so a fused call is one jc block.
constexpr std::size_t kNc = 512;
constexpr std::size_t kNcPadded = (kNc + kNr - 1) / kNr * kNr;

static_assert(kMc % kMr == 0, "A block must hold whole micro-panels");

/// Packing buffers, 1.2 MiB together. One set per thread, allocated on the
/// thread's first call and reused by every later call.
struct alignas(64) PackBuffers {
  double a[kMc * kKc];
  double b[kKc * kNcPadded];
};

PackBuffers& pack_buffers() {
  thread_local const std::unique_ptr<PackBuffers> buf(new PackBuffers);
  return *buf;
}

/// Packs A(0..mc, 0..kc) into kMr-row micro-panels: panel p holds rows
/// [p*kMr, p*kMr + kMr) as kc consecutive columns of kMr doubles. Rows past
/// mc are zero.
void pack_a(ConstMatrixView a, std::size_t mc, std::size_t kc, double* dst) {
  for (std::size_t i0 = 0; i0 < mc; i0 += kMr) {
    const std::size_t mr = std::min(kMr, mc - i0);
    if (mr == kMr) {
      for (std::size_t k = 0; k < kc; ++k, dst += kMr) {
        const double* src = &a(i0, k);
        _mm256_store_pd(dst, _mm256_loadu_pd(src));
        _mm256_store_pd(dst + 4, _mm256_loadu_pd(src + 4));
      }
    } else {
      for (std::size_t k = 0; k < kc; ++k, dst += kMr) {
        std::size_t i = 0;
        for (; i < mr; ++i) dst[i] = a(i0 + i, k);
        for (; i < kMr; ++i) dst[i] = 0.0;
      }
    }
  }
}

/// Packs alpha * B(0..kc, 0..nc) into kNr-column micro-panels: panel p holds
/// columns [p*kNr, p*kNr + kNr) as kc consecutive rows of kNr doubles.
/// Columns past nc are zero.
void pack_b(ConstMatrixView b, std::size_t kc, std::size_t nc, double alpha,
            double* dst) {
  for (std::size_t j0 = 0; j0 < nc; j0 += kNr, dst += kc * kNr) {
    const std::size_t nr = std::min(kNr, nc - j0);
    for (std::size_t j = 0; j < kNr; ++j) {
      if (j < nr) {
        const double* src = &b(0, j0 + j);
        for (std::size_t k = 0; k < kc; ++k) dst[k * kNr + j] = alpha * src[k];
      } else {
        for (std::size_t k = 0; k < kc; ++k) dst[k * kNr + j] = 0.0;
      }
    }
  }
}

/// Writes a finished tile into C: beta == 0 stores without reading C (a NaN
/// left there must not survive), beta == 1 adds, anything else scales.
inline __m256d merge(__m256d acc, const double* c, double beta) {
  if (beta == 0.0) return acc;
  if (beta == 1.0) return _mm256_add_pd(_mm256_loadu_pd(c), acc);
  return _mm256_fmadd_pd(_mm256_set1_pd(beta), _mm256_loadu_pd(c), acc);
}

/// C(0..mr, 0..nr) <- beta * C + Ap * Bp over kc packed steps, for one
/// micro-panel pair. Full tiles store straight from the accumulators; edge
/// tiles go through a scratch tile so only the live mr x nr part is touched.
void micro_8x6(std::size_t kc, const double* ap, const double* bp, double* c,
               std::size_t ldc, double beta, std::size_t mr, std::size_t nr) {
  __m256d c00 = _mm256_setzero_pd(), c10 = _mm256_setzero_pd();
  __m256d c01 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c02 = _mm256_setzero_pd(), c12 = _mm256_setzero_pd();
  __m256d c03 = _mm256_setzero_pd(), c13 = _mm256_setzero_pd();
  __m256d c04 = _mm256_setzero_pd(), c14 = _mm256_setzero_pd();
  __m256d c05 = _mm256_setzero_pd(), c15 = _mm256_setzero_pd();
#pragma GCC unroll 4
  for (std::size_t k = 0; k < kc; ++k, ap += kMr, bp += kNr) {
    const __m256d a0 = _mm256_load_pd(ap);
    const __m256d a1 = _mm256_load_pd(ap + 4);
    __m256d b = _mm256_broadcast_sd(bp);
    c00 = _mm256_fmadd_pd(a0, b, c00);
    c10 = _mm256_fmadd_pd(a1, b, c10);
    b = _mm256_broadcast_sd(bp + 1);
    c01 = _mm256_fmadd_pd(a0, b, c01);
    c11 = _mm256_fmadd_pd(a1, b, c11);
    b = _mm256_broadcast_sd(bp + 2);
    c02 = _mm256_fmadd_pd(a0, b, c02);
    c12 = _mm256_fmadd_pd(a1, b, c12);
    b = _mm256_broadcast_sd(bp + 3);
    c03 = _mm256_fmadd_pd(a0, b, c03);
    c13 = _mm256_fmadd_pd(a1, b, c13);
    b = _mm256_broadcast_sd(bp + 4);
    c04 = _mm256_fmadd_pd(a0, b, c04);
    c14 = _mm256_fmadd_pd(a1, b, c14);
    b = _mm256_broadcast_sd(bp + 5);
    c05 = _mm256_fmadd_pd(a0, b, c05);
    c15 = _mm256_fmadd_pd(a1, b, c15);
  }
  const __m256d acc[kNr][2] = {{c00, c10}, {c01, c11}, {c02, c12},
                               {c03, c13}, {c04, c14}, {c05, c15}};
  if (mr == kMr && nr == kNr) {
    for (std::size_t j = 0; j < kNr; ++j) {
      double* cj = c + j * ldc;
      _mm256_storeu_pd(cj, merge(acc[j][0], cj, beta));
      _mm256_storeu_pd(cj + 4, merge(acc[j][1], cj + 4, beta));
    }
    return;
  }
  alignas(32) double tile[kNr][kMr];
  for (std::size_t j = 0; j < kNr; ++j) {
    _mm256_store_pd(tile[j], acc[j][0]);
    _mm256_store_pd(tile[j] + 4, acc[j][1]);
  }
  for (std::size_t j = 0; j < nr; ++j)
    for (std::size_t i = 0; i < mr; ++i) {
      double& cij = c[j * ldc + i];
      cij = beta == 0.0 ? tile[j][i] : beta * cij + tile[j][i];
    }
}

}  // namespace

void gemm_native_avx2(double alpha, ConstMatrixView a, ConstMatrixView b,
                      double beta, MatrixView c) {
  const std::size_t m = c.rows(), n = c.cols(), kk = a.cols();
  if (alpha == 0.0 || kk == 0) {
    // Nothing to multiply: the scalar path scales C and leaves A, B unread.
    gemm_native_scalar(alpha, a, b, beta, c);
    return;
  }
  PackBuffers& buf = pack_buffers();
  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    for (std::size_t pc = 0; pc < kk; pc += kKc) {
      const std::size_t kc = std::min(kKc, kk - pc);
      const double beta_pc = pc == 0 ? beta : 1.0;
      pack_b(b.block(pc, jc, kc, nc), kc, nc, alpha, buf.b);
      for (std::size_t ic = 0; ic < m; ic += kMc) {
        const std::size_t mc = std::min(kMc, m - ic);
        pack_a(a.block(ic, pc, mc, kc), mc, kc, buf.a);
        for (std::size_t jr = 0; jr < nc; jr += kNr) {
          const double* bp = buf.b + jr * kc;
          for (std::size_t ir = 0; ir < mc; ir += kMr)
            micro_8x6(kc, buf.a + ir * kc, bp, &c(ic + ir, jc + jr), c.ld(),
                      beta_pc, std::min(kMr, mc - ir), std::min(kNr, nc - jr));
        }
      }
    }
  }
}

double fma_peak_loop_avx2(long iters, double& sink) {
  // Twelve independent chains, like the 8x6 tile's accumulators: enough to
  // cover the FMA latency on two pipes, so the loop is throughput-bound.
  constexpr int kChains = 12;
  __m256d acc[kChains];
  for (int i = 0; i < kChains; ++i) acc[i] = _mm256_set1_pd(1.0 + i);
  const __m256d mul = _mm256_set1_pd(0.999999);
  const __m256d add = _mm256_set1_pd(1e-7);
  for (long it = 0; it < iters; ++it)
    for (int i = 0; i < kChains; ++i)
      acc[i] = _mm256_fmadd_pd(acc[i], mul, add);
  __m256d s = acc[0];
  for (int i = 1; i < kChains; ++i) s = _mm256_add_pd(s, acc[i]);
  alignas(32) double out[4];
  _mm256_store_pd(out, s);
  sink = out[0] + out[1] + out[2] + out[3];
  return 2.0 * 4.0 * kChains * static_cast<double>(iters);
}

}  // namespace abftecc::linalg::detail

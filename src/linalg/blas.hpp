// From-scratch BLAS subset (levels 1-3), templated on a memory Tap.
//
// These are the substrate kernels the ABFT algorithms wrap. They are written
// for clarity and instrumentability rather than peak FLOPS: cache-blocked
// loops in the natural column-major order, with every reference to matrix /
// vector data reported through the Tap (see common/tap.hpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include "common/error.hpp"
#include "common/matrix.hpp"
#include "common/tap.hpp"

namespace abftecc::linalg {

/// Cache-block edge for level-3 kernels. 64x64 doubles = 32 KiB per tile,
/// sized so two tiles fit in a modest L2 slice both on the host and in the
/// simulated hierarchy.
inline constexpr std::size_t kBlock = 64;

// ---------------------------------------------------------------------------
// Level 1
// ---------------------------------------------------------------------------

/// dot <- x . y
template <MemTap Tap = NullTap>
double dot(std::span<const double> x, std::span<const double> y,
           Tap tap = {}) {
  ABFTECC_REQUIRE(x.size() == y.size());
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    tap.read(&x[i]);
    tap.read(&y[i]);
    s += x[i] * y[i];
  }
  return s;
}

/// y <- alpha * x + y
template <MemTap Tap = NullTap>
void axpy(double alpha, std::span<const double> x, std::span<double> y,
          Tap tap = {}) {
  ABFTECC_REQUIRE(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    tap.read(&x[i]);
    tap.update(&y[i]);
    y[i] += alpha * x[i];
  }
}

/// x <- alpha * x
template <MemTap Tap = NullTap>
void scal(double alpha, std::span<double> x, Tap tap = {}) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    tap.update(&x[i]);
    x[i] *= alpha;
  }
}

/// y <- x
template <MemTap Tap = NullTap>
void copy(std::span<const double> x, std::span<double> y, Tap tap = {}) {
  ABFTECC_REQUIRE(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    tap.read(&x[i]);
    tap.write(&y[i]);
    y[i] = x[i];
  }
}

/// Euclidean norm, with scaling against overflow.
template <MemTap Tap = NullTap>
double nrm2(std::span<const double> x, Tap tap = {}) {
  double scale = 0.0, ssq = 1.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    tap.read(&x[i]);
    const double v = std::abs(x[i]);
    if (v == 0.0) continue;
    if (scale < v) {
      ssq = 1.0 + ssq * (scale / v) * (scale / v);
      scale = v;
    } else {
      ssq += (v / scale) * (v / scale);
    }
  }
  return scale * std::sqrt(ssq);
}

/// Index of the element of maximum absolute value (0 if empty).
template <MemTap Tap = NullTap>
std::size_t iamax(std::span<const double> x, Tap tap = {}) {
  std::size_t best = 0;
  double best_v = -1.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    tap.read(&x[i]);
    const double v = std::abs(x[i]);
    if (v > best_v) {
      best_v = v;
      best = i;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Level 2
// ---------------------------------------------------------------------------

/// y <- alpha * A x + beta * y
template <MemTap Tap = NullTap>
void gemv(double alpha, ConstMatrixView a, std::span<const double> x,
          double beta, std::span<double> y, Tap tap = {}) {
  ABFTECC_REQUIRE(x.size() == a.cols() && y.size() == a.rows());
  for (std::size_t i = 0; i < y.size(); ++i) {
    tap.update(&y[i]);
    y[i] *= beta;
  }
  // Column-sweep order: streams A once, exactly the access pattern a
  // column-major matvec produces.
  for (std::size_t j = 0; j < a.cols(); ++j) {
    tap.read(&x[j]);
    const double xj = alpha * x[j];
    if (xj == 0.0) continue;
    for (std::size_t i = 0; i < a.rows(); ++i) {
      tap.read(&a(i, j));
      tap.update(&y[i]);
      y[i] += a(i, j) * xj;
    }
  }
}

/// y <- alpha * A^T x + beta * y
template <MemTap Tap = NullTap>
void gemv_t(double alpha, ConstMatrixView a, std::span<const double> x,
            double beta, std::span<double> y, Tap tap = {}) {
  ABFTECC_REQUIRE(x.size() == a.rows() && y.size() == a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) {
      tap.read(&a(i, j));
      tap.read(&x[i]);
      s += a(i, j) * x[i];
    }
    tap.update(&y[j]);
    y[j] = alpha * s + beta * y[j];
  }
}

/// Rank-1 update A <- A + alpha * x y^T
template <MemTap Tap = NullTap>
void ger(double alpha, std::span<const double> x, std::span<const double> y,
         MatrixView a, Tap tap = {}) {
  ABFTECC_REQUIRE(x.size() == a.rows() && y.size() == a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    tap.read(&y[j]);
    const double yj = alpha * y[j];
    if (yj == 0.0) continue;
    for (std::size_t i = 0; i < a.rows(); ++i) {
      tap.read(&x[i]);
      tap.update(&a(i, j));
      a(i, j) += x[i] * yj;
    }
  }
}

// ---------------------------------------------------------------------------
// Level 3
// ---------------------------------------------------------------------------

namespace detail {

/// One register tile of gemm: C[tile] += A[:,kb] * B[kb,:]. Kept separate so
/// gemm below reads as pure blocking structure.
template <MemTap Tap>
void gemm_tile(ConstMatrixView a, ConstMatrixView b, MatrixView c, Tap& tap) {
  for (std::size_t j = 0; j < c.cols(); ++j) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      tap.read(&b(k, j));
      const double bkj = b(k, j);
      if (bkj == 0.0) continue;
      for (std::size_t i = 0; i < c.rows(); ++i) {
        tap.read(&a(i, k));
        tap.update(&c(i, j));
        c(i, j) += a(i, k) * bkj;
      }
    }
  }
}

}  // namespace detail

/// C <- alpha * A B + beta * C  (no transposes; callers lay data out to fit).
template <MemTap Tap = NullTap>
void gemm(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
          MatrixView c, Tap tap = {}) {
  ABFTECC_REQUIRE(a.rows() == c.rows() && b.cols() == c.cols() &&
                  a.cols() == b.rows());
  for (std::size_t j = 0; j < c.cols(); ++j) {
    for (std::size_t i = 0; i < c.rows(); ++i) {
      tap.update(&c(i, j));
      c(i, j) = beta == 0.0 ? 0.0 : c(i, j) * beta;  // BLAS: beta 0 ignores C
    }
  }
  if (alpha == 0.0) return;
  const std::size_t m = c.rows(), n = c.cols(), kk = a.cols();
  for (std::size_t k0 = 0; k0 < kk; k0 += kBlock) {
    const std::size_t kb = std::min(kBlock, kk - k0);
    for (std::size_t i0 = 0; i0 < m; i0 += kBlock) {
      const std::size_t ib = std::min(kBlock, m - i0);
      for (std::size_t j0 = 0; j0 < n; j0 += kBlock) {
        const std::size_t jb = std::min(kBlock, n - j0);
        // alpha is folded by scaling B's contribution once per tile column
        // would change the access stream; instead pre-scale via a==1 fast
        // path and fall back to an alpha-aware tile.
        if (alpha == 1.0) {
          detail::gemm_tile(a.block(i0, k0, ib, kb), b.block(k0, j0, kb, jb),
                            c.block(i0, j0, ib, jb), tap);
        } else {
          auto at = a.block(i0, k0, ib, kb);
          auto bt = b.block(k0, j0, kb, jb);
          auto ct = c.block(i0, j0, ib, jb);
          for (std::size_t j = 0; j < ct.cols(); ++j) {
            for (std::size_t k = 0; k < at.cols(); ++k) {
              tap.read(&bt(k, j));
              const double bkj = alpha * bt(k, j);
              if (bkj == 0.0) continue;
              for (std::size_t i = 0; i < ct.rows(); ++i) {
                tap.read(&at(i, k));
                tap.update(&ct(i, j));
                ct(i, j) += at(i, k) * bkj;
              }
            }
          }
        }
      }
    }
  }
}

/// C <- C - A * A^T restricted to the lower triangle (blocked SYRK used by
/// the trailing update of Cholesky).
template <MemTap Tap = NullTap>
void syrk_lower_sub(ConstMatrixView a, MatrixView c, Tap tap = {}) {
  ABFTECC_REQUIRE(a.rows() == c.rows() && c.rows() == c.cols());
  const std::size_t n = c.rows(), kk = a.cols();
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < kk; ++k) {
      tap.read(&a(j, k));
      const double ajk = a(j, k);
      if (ajk == 0.0) continue;
      for (std::size_t i = j; i < n; ++i) {
        tap.read(&a(i, k));
        tap.update(&c(i, j));
        c(i, j) -= a(i, k) * ajk;
      }
    }
  }
}

/// Solve X * L^T = B in place (right side, lower-triangular L transposed,
/// non-unit diagonal): the panel update of right-looking Cholesky.
template <MemTap Tap = NullTap>
void trsm_right_lower_trans(ConstMatrixView l, MatrixView b, Tap tap = {}) {
  ABFTECC_REQUIRE(l.rows() == l.cols() && b.cols() == l.rows());
  const std::size_t m = b.rows(), n = b.cols();
  for (std::size_t j = 0; j < n; ++j) {
    tap.read(&l(j, j));
    const double inv = 1.0 / l(j, j);
    for (std::size_t i = 0; i < m; ++i) {
      tap.update(&b(i, j));
      b(i, j) *= inv;
    }
    for (std::size_t k = j + 1; k < n; ++k) {
      tap.read(&l(k, j));
      const double lkj = l(k, j);
      if (lkj == 0.0) continue;
      for (std::size_t i = 0; i < m; ++i) {
        tap.read(&b(i, j));
        tap.update(&b(i, k));
        b(i, k) -= b(i, j) * lkj;
      }
    }
  }
}

/// Solve L * X = B in place (left side, lower-triangular, unit diagonal):
/// the U12 update of blocked LU.
template <MemTap Tap = NullTap>
void trsm_left_lower_unit(ConstMatrixView l, MatrixView b, Tap tap = {}) {
  ABFTECC_REQUIRE(l.rows() == l.cols() && b.rows() == l.rows());
  const std::size_t m = b.rows(), n = b.cols();
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < m; ++k) {
      tap.read(&b(k, j));
      const double bkj = b(k, j);
      if (bkj == 0.0) continue;
      for (std::size_t i = k + 1; i < m; ++i) {
        tap.read(&l(i, k));
        tap.update(&b(i, j));
        b(i, j) -= l(i, k) * bkj;
      }
    }
  }
}

/// Solve L * x = b in place for a vector (forward substitution, non-unit).
template <MemTap Tap = NullTap>
void trsv_lower(ConstMatrixView l, std::span<double> x, Tap tap = {}) {
  ABFTECC_REQUIRE(l.rows() == l.cols() && x.size() == l.rows());
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    double s = x[i];
    tap.read(&x[i]);
    for (std::size_t k = 0; k < i; ++k) {
      tap.read(&l(i, k));
      tap.read(&x[k]);
      s -= l(i, k) * x[k];
    }
    tap.read(&l(i, i));
    tap.write(&x[i]);
    x[i] = s / l(i, i);
  }
}

/// Solve U * x = b in place (backward substitution, non-unit), where U is
/// stored in the upper triangle of `u`.
template <MemTap Tap = NullTap>
void trsv_upper(ConstMatrixView u, std::span<double> x, Tap tap = {}) {
  ABFTECC_REQUIRE(u.rows() == u.cols() && x.size() == u.rows());
  const std::size_t n = x.size();
  for (std::size_t ii = n; ii-- > 0;) {
    double s = x[ii];
    tap.read(&x[ii]);
    for (std::size_t k = ii + 1; k < n; ++k) {
      tap.read(&u(ii, k));
      tap.read(&x[k]);
      s -= u(ii, k) * x[k];
    }
    tap.read(&u(ii, ii));
    tap.write(&x[ii]);
    x[ii] = s / u(ii, ii);
  }
}

/// Solve L^T * x = b in place where L is lower triangular (used after
/// Cholesky: L L^T x = b).
template <MemTap Tap = NullTap>
void trsv_lower_trans(ConstMatrixView l, std::span<double> x, Tap tap = {}) {
  ABFTECC_REQUIRE(l.rows() == l.cols() && x.size() == l.rows());
  const std::size_t n = x.size();
  for (std::size_t ii = n; ii-- > 0;) {
    double s = x[ii];
    tap.read(&x[ii]);
    for (std::size_t k = ii + 1; k < n; ++k) {
      tap.read(&l(k, ii));
      tap.read(&x[k]);
      s -= l(k, ii) * x[k];
    }
    tap.read(&l(ii, ii));
    tap.write(&x[ii]);
    x[ii] = s / l(ii, ii);
  }
}

}  // namespace abftecc::linalg

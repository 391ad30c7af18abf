// Preconditioned conjugate gradient (Figure 1 of the paper), templated on a
// memory Tap so the same source drives both numerics and simulation.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "linalg/blas.hpp"

namespace abftecc::linalg {

/// Result of a CG solve.
struct CgResult {
  bool converged = false;
  std::size_t iterations = 0;
  double residual_norm = 0.0;
};

/// Options controlling the iteration.
struct CgOptions {
  std::size_t max_iterations = 1000;
  double tolerance = 1e-10;  ///< on ||r|| / ||b||
};

/// Jacobi (diagonal) preconditioner M = diag(A): the M of the paper's
/// Figure 1 line 7, solved trivially per element. The inverse diagonal
/// lives in caller-provided storage (n doubles), so a simulated run can
/// place it in node memory next to the other CG vectors.
class JacobiPreconditioner {
 public:
  JacobiPreconditioner(ConstMatrixView a, std::span<double> inv_diag)
      : inv_diag_(inv_diag) {
    ABFTECC_REQUIRE(inv_diag.size() == a.rows());
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double d = a(i, i);
      inv_diag_[i] = (d != 0.0) ? 1.0 / d : 1.0;
    }
  }

  template <MemTap Tap = NullTap>
  void apply(std::span<const double> r, std::span<double> z,
             Tap tap = {}) const {
    ABFTECC_REQUIRE(r.size() == z.size() && z.size() == inv_diag_.size());
    for (std::size_t i = 0; i < r.size(); ++i) {
      tap.read(&r[i]);
      tap.read(&inv_diag_[i]);
      tap.write(&z[i]);
      z[i] = r[i] * inv_diag_[i];
    }
  }

  [[nodiscard]] std::span<const double> inverse_diagonal() const {
    return inv_diag_;
  }

 private:
  std::span<double> inv_diag_;
};

/// Working vectors for PCG; exposed so the ABFT wrapper can place them in
/// ECC-managed memory and register them with the runtime.
struct CgWorkspace {
  std::span<double> r;  ///< residual
  std::span<double> z;  ///< preconditioned residual
  std::span<double> p;  ///< search direction
  std::span<double> q;  ///< A p
};

/// One iteration of PCG (lines 3-10 of Figure 1). Returns the updated rho.
/// Exposed at this granularity because FT-CG verifies invariants between
/// iterations and the simulator runs "a few representative iterations".
template <MemTap Tap = NullTap>
double pcg_iteration(ConstMatrixView a, const JacobiPreconditioner& m,
                     std::span<double> x, CgWorkspace w, double rho,
                     Tap tap = {}) {
  gemv(1.0, a, w.p, 0.0, w.q, tap);                    // q = A p
  const double pq = dot<Tap>(w.p, w.q, tap);
  const double alpha = rho / pq;
  axpy(alpha, w.p, x, tap);                            // x += alpha p
  axpy(-alpha, w.q, w.r, tap);                         // r -= alpha q
  m.apply(w.r, w.z, tap);                              // M z = r
  const double rho_next = dot<Tap>(w.r, w.z, tap);
  const double beta = rho_next / rho;
  for (std::size_t i = 0; i < w.p.size(); ++i) {       // p = z + beta p
    tap.read(&w.z[i]);
    tap.update(&w.p[i]);
    w.p[i] = w.z[i] + beta * w.p[i];
  }
  return rho_next;
}

/// Full PCG solve of A x = b with Jacobi preconditioning.
template <MemTap Tap = NullTap>
CgResult pcg_solve(ConstMatrixView a, std::span<const double> b,
                   std::span<double> x, const CgOptions& opt = {},
                   Tap tap = {}) {
  const std::size_t n = b.size();
  ABFTECC_REQUIRE(a.rows() == n && a.cols() == n && x.size() == n);
  std::vector<double> r(n), z(n), p(n), q(n), inv_diag(n);
  JacobiPreconditioner m(a, inv_diag);

  // r0 = b - A x0
  gemv(-1.0, a, x, 0.0, r, tap);
  axpy(1.0, b, r, tap);
  m.apply(r, z, tap);
  copy<Tap>(z, p, tap);
  double rho = dot<Tap>(r, z, tap);

  const double bnorm = nrm2<Tap>(b, tap);
  const double threshold = opt.tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  CgResult res;
  res.residual_norm = nrm2<Tap>(std::span<const double>(r), tap);
  if (res.residual_norm <= threshold) {
    res.converged = true;  // initial guess already solves the system
    return res;
  }
  CgWorkspace w{r, z, p, q};
  for (std::size_t it = 0; it < opt.max_iterations; ++it) {
    rho = pcg_iteration(a, m, x, w, rho, tap);
    res.iterations = it + 1;
    res.residual_norm = nrm2<Tap>(std::span<const double>(r), tap);
    if (res.residual_norm <= threshold) {
      res.converged = true;
      break;
    }
  }
  return res;
}

}  // namespace abftecc::linalg

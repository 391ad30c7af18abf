// FT-Pred-CG: fault-tolerant preconditioned conjugate gradient for
// fail-continue errors (Section 2.1, after Chen's Online-ABFT).
//
// Unlike the checksum kernels, CG is protected by an algorithm-inherent
// invariant: at every iteration r = b - A x must hold (the paper's
// Equations (1) family). Every `verify_period` iterations the residual
// d = b - A x - r is recomputed (cost: one matvec). A nonzero d means some
// of r, p, q, x (or propagated M/rho damage) was corrupted; recovery sets
// r := b - A x (i.e. r += d), re-applies the preconditioner and restarts
// the search direction -- a valid CG state from the current x, so the
// solve converges even when x itself took the hit. The static right-hand
// side b is covered by a sum/weighted checksum pair and repaired directly,
// and so is the static operator matrix A (one sum + one weighted checksum
// per column, encoded once and verified each period), following standard
// FT-CG practice -- the operator carries the bulk of the memory traffic,
// so it is what relaxed ECC must cover to matter (see DESIGN.md).
// In cooperative mode the matvec check is skipped entirely while the OS
// error log is empty -- the largest simplified-verification win of Table 1.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include "abft/checksum.hpp"
#include "abft/common.hpp"
#include "abft/runtime.hpp"
#include "linalg/cg.hpp"

namespace abftecc::abft {

struct FtCgResult {
  linalg::CgResult cg;
  FtStatus status = FtStatus::kOk;
};

class FtCg {
 public:
  struct Buffers {
    std::span<double> x;
    std::span<double> r;
    std::span<double> z;
    std::span<double> p;
    std::span<double> q;
    /// 4n doubles of kernel-private scratch: the preconditioner's inverse
    /// diagonal, the two static column checksums of A, and the verify
    /// residual d. A simulated run places it in node memory so its
    /// addresses do not depend on the host heap.
    std::span<double> workspace;
  };

  FtCg(MatrixView a, std::span<double> b, Buffers buf,
       linalg::CgOptions cg_opt = {}, FtOptions ft_opt = {},
       Runtime* runtime = nullptr)
      : a_(a), b_(b), buf_(buf), cg_opt_(cg_opt), opt_(ft_opt), rt_(runtime) {
    const std::size_t n = a.rows();
    ABFTECC_REQUIRE(a.cols() == n && b.size() == n);
    ABFTECC_REQUIRE(buf.x.size() == n && buf.r.size() == n &&
                    buf.z.size() == n && buf.p.size() == n &&
                    buf.q.size() == n && buf.workspace.size() == 4 * n);
    if (rt_ != nullptr) {
      ids_[0] = rt_->register_structure("ft_cg.x", buf.x.data(), n);
      ids_[1] = rt_->register_structure("ft_cg.r", buf.r.data(), n);
      ids_[2] = rt_->register_structure("ft_cg.p", buf.p.data(), n);
      ids_[3] = rt_->register_structure("ft_cg.q", buf.q.data(), n);
      ids_[4] = rt_->register_structure("ft_cg.b", b.data(), n);
      ids_[5] = rt_->register_structure("ft_cg.A", a.data(), a.ld() * n);
    }
  }

  ~FtCg() {
    if (rt_ != nullptr)
      for (const auto id : ids_) rt_->unregister_structure(id);
  }
  FtCg(const FtCg&) = delete;
  FtCg& operator=(const FtCg&) = delete;

  /// Run through a memory backend (common/backend.hpp): tap and FtStats
  /// time source both come from the backend.
  template <MemBackend B>
  FtCgResult run(B& be) {
    using Tap = typename B::Tap;
    clock_ = be.clock();
    Tap tap = be.tap();
    const std::size_t n = b_.size();
    linalg::JacobiPreconditioner m{ConstMatrixView(a_), scratch(0)};
    encode_b(tap);
    encode_a(tap);

    // r0 = b - A x0; z0 = M^-1 r0; p0 = z0.
    linalg::gemv(-1.0, a_, buf_.x, 0.0, buf_.r, tap);
    linalg::axpy(1.0, std::span<const double>(b_), buf_.r, tap);
    m.apply(buf_.r, buf_.z, tap);
    linalg::copy<Tap>(buf_.z, buf_.p, tap);
    double rho = linalg::dot<Tap>(buf_.r, buf_.z, tap);

    const double bnorm = linalg::nrm2<Tap>(std::span<const double>(b_), tap);
    const double threshold =
        cg_opt_.tolerance * (bnorm > 0.0 ? bnorm : 1.0);
    scale_ = bnorm > 0.0 ? bnorm / std::sqrt(static_cast<double>(n)) : 1.0;

    FtCgResult res;
    linalg::CgWorkspace w{buf_.r, buf_.z, buf_.p, buf_.q};
    std::size_t since_verify = 0;
    for (std::size_t it = 0; it < cg_opt_.max_iterations; ++it) {
      rho = linalg::pcg_iteration(a_, m, buf_.x, w, rho, tap);
      res.cg.iterations = it + 1;
      if (++since_verify >= opt_.verify_period) {
        since_verify = 0;
        const FtStatus st = verify_and_correct(m, rho, be);
        if (st == FtStatus::kUncorrectable) {
          res.status = st;
          return res;
        }
      }
      res.cg.residual_norm =
          linalg::nrm2<Tap>(std::span<const double>(buf_.r), tap);
      if (res.cg.residual_norm <= threshold) {
        // Final guard: never report convergence off a corrupted state.
        const FtStatus st = verify_and_correct(m, rho, be);
        if (st == FtStatus::kUncorrectable) {
          res.status = st;
          return res;
        }
        res.cg.residual_norm =
            linalg::nrm2<Tap>(std::span<const double>(buf_.r), tap);
        if (res.cg.residual_norm <= threshold) {
          res.cg.converged = true;
          break;
        }
      }
    }
    res.status = stats_.errors_corrected > 0 ? FtStatus::kCorrectedErrors
                                             : FtStatus::kOk;
    if (!res.cg.converged && res.status == FtStatus::kOk)
      res.status = FtStatus::kNumericalFailure;
    return res;
  }

  [[nodiscard]] const FtStats& stats() const { return stats_; }

  /// Public for tests: one verification pass (rho is refreshed on repair).
  template <MemBackend B>
  FtStatus verify_and_correct(const linalg::JacobiPreconditioner& m,
                              double& rho, B& be) {
    clock_ = be.clock();
    auto tap = be.tap();
    ++stats_.verifications;
    ScopedPhase phase(rt_, obs::EventKind::kVerify, "ft_cg.verify");
    if (opt_.hardware_assisted && rt_ != nullptr &&
        rt_->hardware_assisted_available()) {
      PhaseTimer t(stats_.verify_seconds, clock_);
      if (!rt_->errors_pending()) return FtStatus::kOk;
      rt_->drain_located_errors();  // locations noted; repair is uniform
      ++stats_.hw_notifications_used;
      ++stats_.errors_detected;
      PhaseTimer tc(stats_.correct_seconds, clock_);
      ScopedPhase recover(rt_, obs::EventKind::kRecover, "ft_cg.recover");
      repair(m, rho, tap);
      ++stats_.errors_corrected;
      return FtStatus::kCorrectedErrors;
    }
    PhaseTimer t(stats_.verify_seconds, clock_);
    return full_verify(m, rho, tap);
  }

 private:
  template <MemTap Tap>
  void encode_b(Tap tap) {
    PhaseTimer t(stats_.encode_seconds, clock_);
    ScopedPhase phase(rt_, obs::EventKind::kEncode, "ft_cg.encode");
    b_sum_ = 0.0;
    b_weighted_ = 0.0;
    for (std::size_t i = 0; i < b_.size(); ++i) {
      tap.read(&b_[i]);
      b_sum_ += b_[i];
      b_weighted_ += static_cast<double>(i + 1) * b_[i];
    }
  }

  /// Encode the static column checksums of A (checksum-maintenance phase).
  template <MemTap Tap>
  void encode_a(Tap tap) {
    PhaseTimer t(stats_.encode_seconds, clock_);
    ScopedPhase phase(rt_, obs::EventKind::kEncode, "ft_cg.encode");
    std::fill(a_sum().begin(), a_sum().end(), 0.0);
    std::fill(a_weighted().begin(), a_weighted().end(), 0.0);
    column_checksums(ConstMatrixView(a_), a_sum(), a_weighted(), 0, tap);
  }

  /// Verify/repair A against its static checksums. Returns false on an
  /// unlocatable corruption.
  template <MemTap Tap>
  bool verify_a(Tap tap) {
    const double a_scale = scale_ > 0.0 ? scale_ : 1.0;
    const auto errors =
        verify_columns(ConstMatrixView(a_), std::span<const double>(a_sum()),
                       std::span<const double>(a_weighted()), opt_.tolerance,
                       a_scale, 0, tap);
    if (errors.empty()) return true;
    PhaseTimer t(stats_.correct_seconds, clock_);
    ScopedPhase sp(rt_, obs::EventKind::kRecover, "ft_cg.correct");
    for (const auto& e : errors) {
      ++stats_.errors_detected;
      if (!e.locatable) return false;
      tap.update(&a_(e.row, e.column));
      a_(e.row, e.column) -= e.magnitude;
      ++stats_.errors_corrected;
    }
    return true;
  }

  /// Repair b from its static checksums; returns false on an unlocatable
  /// multi-element corruption.
  template <MemTap Tap>
  bool verify_b(Tap tap) {
    double s = 0.0, wsum = 0.0;
    for (std::size_t i = 0; i < b_.size(); ++i) {
      tap.read(&b_[i]);
      s += b_[i];
      wsum += static_cast<double>(i + 1) * b_[i];
    }
    const double threshold =
        opt_.tolerance * scale_ * static_cast<double>(b_.size());
    const double ds = s - b_sum_;
    if (std::abs(ds) <= threshold) return true;
    ++stats_.errors_detected;
    PhaseTimer t(stats_.correct_seconds, clock_);
    ScopedPhase sp(rt_, obs::EventKind::kRecover, "ft_cg.correct");
    const double dw = wsum - b_weighted_;
    const double row_f = dw / ds - 1.0;
    const auto row = static_cast<long long>(std::llround(row_f));
    if (row < 0 || row >= static_cast<long long>(b_.size()) ||
        std::abs(dw - ds * static_cast<double>(row + 1)) >
            threshold * static_cast<double>(b_.size()))
      return false;
    tap.update(&b_[static_cast<std::size_t>(row)]);
    b_[static_cast<std::size_t>(row)] -= ds;
    ++stats_.errors_corrected;
    return true;
  }

  /// Restore the invariant r = b - A x and restart the direction.
  template <MemTap Tap>
  void repair(const linalg::JacobiPreconditioner& m, double& rho, Tap tap) {
    // Non-finite x entries would poison the restart; zero them (CG then
    // reconverges from the perturbed iterate).
    for (std::size_t i = 0; i < buf_.x.size(); ++i) {
      tap.read(&buf_.x[i]);
      if (!std::isfinite(buf_.x[i])) {
        tap.write(&buf_.x[i]);
        buf_.x[i] = 0.0;
      }
    }
    linalg::gemv(-1.0, a_, buf_.x, 0.0, buf_.r, tap);
    linalg::axpy(1.0, std::span<const double>(b_), buf_.r, tap);
    m.apply(buf_.r, buf_.z, tap);
    linalg::copy<Tap>(buf_.z, buf_.p, tap);
    rho = linalg::dot<Tap>(buf_.r, buf_.z, tap);
  }

  template <MemTap Tap>
  FtStatus full_verify(const linalg::JacobiPreconditioner& m, double& rho,
                       Tap tap) {
    if (!verify_b(tap)) return FtStatus::kUncorrectable;
    // The operator is static, so its O(n^2) checksum scan runs on every
    // fourth verification only (Online-ABFT style lazy escalation); the
    // per-period cost stays near one matvec.
    bool a_was_repaired = false;
    if (++verifies_since_a_check_ >= kMatrixCheckInterval) {
      verifies_since_a_check_ = 0;
      const auto corrected_before = stats_.errors_corrected;
      if (!verify_a(tap)) return FtStatus::kUncorrectable;
      a_was_repaired = stats_.errors_corrected != corrected_before;
    }
    // d = b - A x - r; any corruption of r, q or x breaks it.
    const std::span<double> d = scratch(3);
    std::fill(d.begin(), d.end(), 0.0);
    linalg::gemv(-1.0, a_, buf_.x, 0.0, d, tap);
    linalg::axpy(1.0, std::span<const double>(b_), d, tap);
    linalg::axpy(-1.0, std::span<const double>(buf_.r), d, tap);
    double dmax = 0.0;
    for (std::size_t i = 0; i < d.size(); ++i)
      dmax = std::max(dmax, std::abs(d[i]));
    const double threshold = opt_.tolerance * scale_;
    // Second invariant (the paper's Eq. (1) orthogonality family): the
    // exact recurrences give p^T r == rho at every iteration. Corruption
    // of p or z leaves r = b - A x intact (x and r absorb a wrong
    // direction consistently) but breaks this relation.
    const double pr = linalg::dot<Tap>(std::span<const double>(buf_.p),
                                       std::span<const double>(buf_.r), tap);
    const double pnorm =
        linalg::nrm2<Tap>(std::span<const double>(buf_.p), tap);
    const double rnorm =
        linalg::nrm2<Tap>(std::span<const double>(buf_.r), tap);
    const bool direction_ok =
        std::isfinite(pr) &&
        std::abs(pr - rho) <=
            1e-6 * (pnorm * rnorm + std::abs(rho)) + threshold;
    if (!a_was_repaired && direction_ok && std::isfinite(dmax) &&
        dmax <= threshold)
      return FtStatus::kOk;
    if (a_was_repaired) {
      // The operator was corrupted for some iterations: restart the
      // direction from the repaired A.
      PhaseTimer t(stats_.correct_seconds, clock_);
      ScopedPhase sp(rt_, obs::EventKind::kRecover, "ft_cg.correct");
      repair(m, rho, tap);
      return FtStatus::kCorrectedErrors;
    }
    ++stats_.errors_detected;
    PhaseTimer t(stats_.correct_seconds, clock_);
    ScopedPhase sp(rt_, obs::EventKind::kRecover, "ft_cg.correct");
    repair(m, rho, tap);
    ++stats_.errors_corrected;
    return FtStatus::kCorrectedErrors;
  }

  MatrixView a_;
  std::span<double> b_;
  Buffers buf_;
  linalg::CgOptions cg_opt_;
  FtOptions opt_;
  Runtime* rt_;
  TickClock clock_;  ///< FtStats time source: the current backend's clock
  std::size_t ids_[6] = {};
  /// Slice `i` of the 4n workspace: 0 inverse diagonal, 1 column sums of
  /// A, 2 weighted column sums of A, 3 verify residual.
  [[nodiscard]] std::span<double> scratch(std::size_t i) const {
    const std::size_t n = b_.size();
    return buf_.workspace.subspan(i * n, n);
  }
  [[nodiscard]] std::span<double> a_sum() const { return scratch(1); }
  [[nodiscard]] std::span<double> a_weighted() const { return scratch(2); }

  double b_sum_ = 0.0, b_weighted_ = 0.0;
  static constexpr std::size_t kMatrixCheckInterval = 4;
  std::size_t verifies_since_a_check_ = kMatrixCheckInterval - 1;
  double scale_ = 1.0;
  FtStats stats_;
};

}  // namespace abftecc::abft

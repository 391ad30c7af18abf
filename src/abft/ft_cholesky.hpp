// FT-Cholesky: fault-tolerant blocked right-looking Cholesky factorization
// for fail-continue errors (Section 2.1, after Wu et al.).
//
// Every stored column j carries two checksums over its lower-triangle part,
//   S(j) = sum_{i>=j} A(i,j)   and   W(j) = sum_{i>=j} (i+1) A(i,j),
// encoded once and then MAINTAINED through every step of the blocked
// algorithm rather than re-encoded (a re-encode would silently absorb any
// corruption in flight):
//   * the trailing update A22 -= L21 L21^T updates both rows with
//     O((n-k) b) suffix-sum work;
//   * the panel solve L21 = A21 L11^{-T} acts row-wise and linearly, so
//     the below-diagonal checksum components transform through the very
//     same triangular solve (on a 1 x b checksum row);
//   * the diagonal block's own contribution is recomputed after POTF2 and
//     the block is cross-checked against a saved copy (L11 L11^T == A11),
//     closing the only nonlinear step.
// Verification at the top of every block iteration re-sums ALL columns --
// finished L columns keep their finalized checksums, so the in-place
// factor stays protected to the end. A corrupted element produces a sum
// residual whose weighted/sum ratio locates the row: one error per column,
// across any number of columns, is corrected in place. In cooperative mode
// the verification consults the OS error log instead of recomputing sums.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "abft/checksum.hpp"
#include "abft/common.hpp"
#include "abft/runtime.hpp"
#include "linalg/factor.hpp"

namespace abftecc::abft {

class FtCholesky {
 public:
  struct Buffers {
    MatrixView a;                ///< n x n, factored in place
    std::span<double> sum;       ///< n sum checksums
    std::span<double> weighted;  ///< n weighted checksums
  };

  explicit FtCholesky(Buffers buf, FtOptions opt = {},
                      Runtime* runtime = nullptr,
                      std::size_t block = linalg::kBlock)
      : buf_(buf), opt_(opt), rt_(runtime), nb_(block) {
    ABFTECC_REQUIRE(buf.a.rows() == buf.a.cols());
    ABFTECC_REQUIRE(buf.sum.size() == buf.a.cols() &&
                    buf.weighted.size() == buf.a.cols());
    if (rt_ != nullptr)
      struct_id_ = rt_->register_structure("ft_cholesky.A", buf_.a.data(),
                                           buf_.a.ld() * buf_.a.cols());
  }

  ~FtCholesky() {
    if (rt_ != nullptr) rt_->unregister_structure(struct_id_);
  }
  FtCholesky(const FtCholesky&) = delete;
  FtCholesky& operator=(const FtCholesky&) = delete;

  /// Run through a memory backend (common/backend.hpp): tap and FtStats
  /// time source both come from the backend.
  template <MemBackend B>
  FtStatus run(B& be) {
    clock_ = be.clock();
    auto tap = be.tap();
    const std::size_t n = buf_.a.rows();
    scale_ = mean_abs(buf_.a);
    if (scale_ == 0.0) scale_ = 1.0;
    encode_all(tap);
    for (std::size_t k = 0; k < n; k += nb_) {
      const std::size_t b = std::min(nb_, n - k);
      // (0) verify every column against its maintained checksums.
      const FtStatus vst = verify_and_correct(k, be);
      if (vst == FtStatus::kUncorrectable) return vst;

      // Split the panel checksums: the diagonal-block contribution goes
      // through the nonlinear POTF2 (recomputed below); the below-diagonal
      // part transforms linearly through the TRSM.
      split_out_diag_contribution(k, b, tap);

      // (1) factor the diagonal block, guarded by a saved copy.
      Matrix diag_copy(b, b);
      for (std::size_t j = 0; j < b; ++j)
        for (std::size_t i = j; i < b; ++i) {
          tap.read(&buf_.a(k + i, k + j));
          diag_copy(i, j) = buf_.a(k + i, k + j);
        }
      if (linalg::potf2(buf_.a.block(k, k, b, b), tap) !=
          linalg::FactorStatus::kOk)
        return FtStatus::kNumericalFailure;
      if (!verify_diag_factorization(k, b, diag_copy, tap))
        return FtStatus::kUncorrectable;

      if (k + b < n) {
        const std::size_t rest = n - k - b;
        // (2) panel solve L21 = A21 L11^{-T} -- applied to the matrix rows
        // and, identically, to the below-diagonal checksum rows.
        linalg::trsm_right_lower_trans(
            ConstMatrixView(buf_.a.block(k, k, b, b)),
            buf_.a.block(k + b, k, rest, b), tap);
        linalg::trsm_right_lower_trans(
            ConstMatrixView(buf_.a.block(k, k, b, b)),
            MatrixView(buf_.sum.data() + k, 1, b, 1), tap);
        linalg::trsm_right_lower_trans(
            ConstMatrixView(buf_.a.block(k, k, b, b)),
            MatrixView(buf_.weighted.data() + k, 1, b, 1), tap);
      }
      // Fold the recomputed (now final) diagonal contribution back in.
      add_back_diag_contribution(k, b, tap);

      if (k + b < n) {
        const std::size_t rest = n - k - b;
        // Verify the freshly produced panel BEFORE the trailing update
        // consumes it: a corrupted L21 element repaired now never
        // contaminates A22 (repairing it later would leave the propagated
        // damage behind).
        const FtStatus pst = verify_panel(k, b, tap);
        if (pst == FtStatus::kUncorrectable) return pst;
        // (3) update the checksum rows first (from the just-verified
        // panel), then the trailing matrix: corruption landing in L21
        // between the two passes makes data and checksums diverge and is
        // caught -- and per-column located -- at the next verification.
        maintain_checksums_through_update_pre(k + b, b, tap);
        linalg::syrk_lower_sub(
            ConstMatrixView(buf_.a.block(k + b, k, rest, b)),
            buf_.a.block(k + b, k + b, rest, rest), tap);
      }
    }
    // Final pass over the finished factor.
    const FtStatus vst = verify_and_correct(n, be);
    if (vst == FtStatus::kUncorrectable) return vst;
    return stats_.errors_corrected > 0 ? FtStatus::kCorrectedErrors
                                       : FtStatus::kOk;
  }

  [[nodiscard]] const FtStats& stats() const { return stats_; }
  [[nodiscard]] ConstMatrixView factor() const {
    return ConstMatrixView(buf_.a);
  }

  /// Public for tests: verify/correct every column against its maintained
  /// checksums. `k` only selects the hardware-notification window.
  template <MemBackend B>
  FtStatus verify_and_correct(std::size_t k, B& be) {
    clock_ = be.clock();
    auto tap = be.tap();
    ++stats_.verifications;
    ScopedPhase phase(rt_, obs::EventKind::kVerify, "ft_cholesky.verify");
    if (opt_.hardware_assisted && rt_ != nullptr &&
        rt_->hardware_assisted_available()) {
      PhaseTimer t(stats_.verify_seconds, clock_);
      if (!rt_->errors_pending()) return FtStatus::kOk;
      return correct_from_notifications(k, tap);
    }
    PhaseTimer t(stats_.verify_seconds, clock_);
    return full_verify(tap);
  }

 private:
  /// Initial encoding of S and W over the stored lower triangle.
  template <MemTap Tap>
  void encode_all(Tap tap) {
    PhaseTimer t(stats_.encode_seconds, clock_);
    ScopedPhase phase(rt_, obs::EventKind::kEncode, "ft_cholesky.encode");
    const std::size_t n = buf_.a.rows();
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0, w = 0.0;
      for (std::size_t i = j; i < n; ++i) {
        tap.read(&buf_.a(i, j));
        s += buf_.a(i, j);
        w += static_cast<double>(i + 1) * buf_.a(i, j);
      }
      tap.write(&buf_.sum[j]);
      tap.write(&buf_.weighted[j]);
      buf_.sum[j] = s;
      buf_.weighted[j] = w;
    }
  }

  /// Subtract the diagonal-block rows' contribution from the panel
  /// columns' checksums, leaving only the below-diagonal component that
  /// the TRSM will transform.
  template <MemTap Tap>
  void split_out_diag_contribution(std::size_t k, std::size_t b, Tap tap) {
    PhaseTimer t(stats_.encode_seconds, clock_);
    ScopedPhase phase(rt_, obs::EventKind::kEncode, "ft_cholesky.encode");
    for (std::size_t j = 0; j < b; ++j) {
      double s = 0.0, w = 0.0;
      for (std::size_t i = j; i < b; ++i) {
        tap.read(&buf_.a(k + i, k + j));
        s += buf_.a(k + i, k + j);
        w += static_cast<double>(k + i + 1) * buf_.a(k + i, k + j);
      }
      tap.update(&buf_.sum[k + j]);
      tap.update(&buf_.weighted[k + j]);
      buf_.sum[k + j] -= s;
      buf_.weighted[k + j] -= w;
    }
  }

  /// Recompute the (now final) diagonal-block contribution from L11 and
  /// fold it back into the panel checksums.
  template <MemTap Tap>
  void add_back_diag_contribution(std::size_t k, std::size_t b, Tap tap) {
    PhaseTimer t(stats_.encode_seconds, clock_);
    ScopedPhase phase(rt_, obs::EventKind::kEncode, "ft_cholesky.encode");
    for (std::size_t j = 0; j < b; ++j) {
      double s = 0.0, w = 0.0;
      for (std::size_t i = j; i < b; ++i) {
        tap.read(&buf_.a(k + i, k + j));
        s += buf_.a(k + i, k + j);
        w += static_cast<double>(k + i + 1) * buf_.a(k + i, k + j);
      }
      tap.update(&buf_.sum[k + j]);
      tap.update(&buf_.weighted[k + j]);
      buf_.sum[k + j] += s;
      buf_.weighted[k + j] += w;
    }
  }

  /// Cross-check L11 L11^T against the saved pre-factor block: closes the
  /// window around the nonlinear POTF2 step.
  template <MemTap Tap>
  bool verify_diag_factorization(std::size_t k, std::size_t b,
                                 const Matrix& diag_copy, Tap tap) {
    PhaseTimer t(stats_.verify_seconds, clock_);
    ScopedPhase phase(rt_, obs::EventKind::kVerify, "ft_cholesky.verify");
    const double threshold =
        opt_.tolerance * scale_ * static_cast<double>(buf_.a.rows());
    for (std::size_t j = 0; j < b; ++j)
      for (std::size_t i = j; i < b; ++i) {
        double s = 0.0;
        for (std::size_t c = 0; c <= j; ++c) {
          tap.read(&buf_.a(k + i, k + c));
          tap.read(&buf_.a(k + j, k + c));
          s += buf_.a(k + i, k + c) * buf_.a(k + j, k + c);
        }
        if (std::abs(s - diag_copy(i, j)) > threshold) {
          ++stats_.errors_detected;
          return false;
        }
      }
    return true;
  }

  /// Verify (and correct) only the panel columns [k, k+b) right after the
  /// panel completes -- O((n-k) b).
  template <MemTap Tap>
  FtStatus verify_panel(std::size_t k, std::size_t b, Tap tap) {
    PhaseTimer t(stats_.verify_seconds, clock_);
    ScopedPhase phase(rt_, obs::EventKind::kVerify, "ft_cholesky.verify");
    const std::size_t n = buf_.a.rows();
    const double threshold =
        opt_.tolerance * scale_ * static_cast<double>(n);
    for (std::size_t j = k; j < k + b; ++j) {
      double s = 0.0, w = 0.0;
      for (std::size_t i = j; i < n; ++i) {
        tap.read(&buf_.a(i, j));
        s += buf_.a(i, j);
        w += static_cast<double>(i + 1) * buf_.a(i, j);
      }
      tap.read(&buf_.sum[j]);
      const double ds = s - buf_.sum[j];
      if (std::abs(ds) <= threshold) continue;
      ++stats_.errors_detected;
      PhaseTimer tc(stats_.correct_seconds, clock_);
      tap.read(&buf_.weighted[j]);
      const double dw = w - buf_.weighted[j];
      const auto row =
          static_cast<long long>(std::llround(dw / ds - 1.0));
      if (row < static_cast<long long>(j) ||
          row >= static_cast<long long>(n) ||
          std::abs(dw - ds * static_cast<double>(row + 1)) >
              threshold * static_cast<double>(n))
        return FtStatus::kUncorrectable;
      tap.update(&buf_.a(static_cast<std::size_t>(row), j));
      buf_.a(static_cast<std::size_t>(row), j) -= ds;
      ++stats_.errors_corrected;
    }
    return FtStatus::kOk;
  }

  /// Apply the trailing update's effect to S and W:
  /// S(j) -= sum_t L21(j,t) * suffix_{i>=j} L21(i,t), and the weighted
  /// analogue, walking each panel column bottom-up (O(rest * b)).
  template <MemTap Tap>
  void maintain_checksums_through_update_pre(std::size_t k2, std::size_t b,
                                             Tap tap) {
    PhaseTimer t(stats_.encode_seconds, clock_);
    ScopedPhase phase(rt_, obs::EventKind::kEncode, "ft_cholesky.encode");
    const std::size_t n = buf_.a.rows();
    const std::size_t rest = n - k2;
    ConstMatrixView l21 =
        ConstMatrixView(buf_.a).block(k2, k2 - b, rest, b);
    for (std::size_t tcol = 0; tcol < b; ++tcol) {
      double suffix = 0.0, wsuffix = 0.0;
      for (std::size_t j = rest; j-- > 0;) {
        tap.read(&l21(j, tcol));
        const double v = l21(j, tcol);
        suffix += v;
        wsuffix += static_cast<double>(k2 + j + 1) * v;
        tap.update(&buf_.sum[k2 + j]);
        tap.update(&buf_.weighted[k2 + j]);
        buf_.sum[k2 + j] -= v * suffix;
        buf_.weighted[k2 + j] -= v * wsuffix;
      }
    }
  }

  template <MemTap Tap>
  FtStatus full_verify(Tap tap) {
    const std::size_t n = buf_.a.rows();
    const double threshold =
        opt_.tolerance * scale_ * static_cast<double>(n);
    bool corrected_any = false;
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0, w = 0.0;
      for (std::size_t i = j; i < n; ++i) {
        tap.read(&buf_.a(i, j));
        s += buf_.a(i, j);
        w += static_cast<double>(i + 1) * buf_.a(i, j);
      }
      tap.read(&buf_.sum[j]);
      const double ds = s - buf_.sum[j];
      if (std::abs(ds) <= threshold) continue;
      ++stats_.errors_detected;
      PhaseTimer t(stats_.correct_seconds, clock_);
      ScopedPhase phase(rt_, obs::EventKind::kRecover, "ft_cholesky.correct");
      tap.read(&buf_.weighted[j]);
      const double dw = w - buf_.weighted[j];
      const double row_f = dw / ds - 1.0;
      const auto row = static_cast<long long>(std::llround(row_f));
      // A genuine single error satisfies dw == ds * (row+1) exactly (up to
      // rounding); coincidental near-integer ratios from multi-error
      // patterns fail this consistency test.
      if (row < static_cast<long long>(j) ||
          row >= static_cast<long long>(n) ||
          std::abs(dw - ds * static_cast<double>(row + 1)) >
              threshold * static_cast<double>(n))
        return FtStatus::kUncorrectable;
      tap.update(&buf_.a(static_cast<std::size_t>(row), j));
      buf_.a(static_cast<std::size_t>(row), j) -= ds;
      ++stats_.errors_corrected;
      corrected_any = true;
    }
    return corrected_any ? FtStatus::kCorrectedErrors : FtStatus::kOk;
  }

  template <MemTap Tap>
  FtStatus correct_from_notifications(std::size_t k, Tap tap) {
    ScopedPhase phase(rt_, obs::EventKind::kRecover, "ft_cholesky.recover");
    const std::size_t n = buf_.a.rows();
    for (const auto& e : rt_->drain_located_errors()) {
      if (e.structure_id != struct_id_) continue;
      ++stats_.hw_notifications_used;
      ++stats_.errors_detected;
      const std::size_t i = e.element_index % buf_.a.ld();
      const std::size_t j = e.element_index / buf_.a.ld();
      if (j >= n || i < j || i >= n) {
        // Outside the checksum-covered lower triangle: cannot repair.
        return FtStatus::kUncorrectable;
      }
      if (j >= k && j < k + nb_ && i < k + nb_) {
        // Inside the diagonal block mid-factorization: the checksum is
        // split; fall back to a full verification instead.
        return full_verify(tap);
      }
      PhaseTimer t(stats_.correct_seconds, clock_);
      double s = 0.0;
      for (std::size_t r = j; r < n; ++r) {
        tap.read(&buf_.a(r, j));
        s += buf_.a(r, j);
      }
      tap.read(&buf_.sum[j]);
      tap.update(&buf_.a(i, j));
      buf_.a(i, j) -= s - buf_.sum[j];
      ++stats_.errors_corrected;
    }
    return FtStatus::kOk;
  }

  Buffers buf_;
  FtOptions opt_;
  Runtime* rt_;
  TickClock clock_;  ///< FtStats time source: the current backend's clock
  std::size_t nb_;
  std::size_t struct_id_ = 0;
  double scale_ = 1.0;
  FtStats stats_;
};

}  // namespace abftecc::abft

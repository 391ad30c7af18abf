// FT-QR: fault-tolerant Householder QR factorization for fail-continue
// errors (the QR member of the ABFT family the paper cites [14]).
//
// QR is the cleanest checksum case of the dense factorizations: the
// algorithm applies ONLY left multiplications (orthogonal reflectors), and
// left multiplications commute with appending checksum COLUMNS --
//     Q^T [A, A e, A w] = [Q^T A, (Q^T A) e, (Q^T A) w],
// so the two appended columns (row sums and column-index-weighted row
// sums) remain exact checksums of every mathematical row at every step,
// with no maintenance code at all. The stored format splits each row into
// the live part (R entries for frozen rows, trailing entries otherwise)
// and the Householder-vector storage below the diagonal, which is outside
// the transformed matrix and therefore outside the invariant; verification
// sums the live range only. A single corrupted element per row is located
// from the (sum, weighted) residual pair and repaired in place between
// panels.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "abft/checksum.hpp"
#include "abft/common.hpp"
#include "abft/runtime.hpp"
#include "linalg/qr.hpp"
#include "recovery/manager.hpp"

namespace abftecc::abft {

class FtQr {
 public:
  struct Buffers {
    MatrixView aw;           ///< m x (n+2): [A | A e | A w], factored in place
    std::span<double> tau;   ///< n reflector coefficients
  };

  /// `a` must stay valid for the kernel's lifetime: it is the recompute
  /// source of the recovery ladder's tier 2. Encodes [A | A e | A w] into
  /// `buf` untapped, timed on the clock of `be`, the backend the kernel
  /// will run on.
  template <MemBackend B>
  FtQr(B& be, ConstMatrixView a, Buffers buf, FtOptions opt = {},
       Runtime* runtime = nullptr, std::size_t block = linalg::kBlock)
      : a_(a), m_(a.rows()), n_(a.cols()), buf_(buf), opt_(opt), rt_(runtime),
        clock_(be.clock()), nb_(block) {
    ABFTECC_REQUIRE(m_ >= n_);
    ABFTECC_REQUIRE(buf.aw.rows() == m_ && buf.aw.cols() == n_ + 2);
    ABFTECC_REQUIRE(buf.tau.size() == n_);
    encode(a);
    if (rt_ != nullptr)
      struct_id_ = rt_->register_structure("ft_qr.Aw", buf_.aw.data(),
                                           buf_.aw.ld() * buf_.aw.cols());
    if (recovery::RecoveryManager* rm = recovery_manager(); rm != nullptr) {
      rm->begin_run();
      track_ids_[0] = rm->store().track(
          "ft_qr.aw", buf_.aw.data(),
          buf_.aw.ld() * buf_.aw.cols() * sizeof(double));
      track_ids_[1] = rm->store().track("ft_qr.tau", buf_.tau.data(),
                                        buf_.tau.size() * sizeof(double));
      tracked_ = true;
      rm->commit(0);  // epoch 0: encoded, nothing factored yet
    }
  }

  ~FtQr() {
    if (tracked_) {
      recovery::CheckpointStore& s = recovery_manager()->store();
      s.untrack(track_ids_[0]);
      s.untrack(track_ids_[1]);
    }
    if (rt_ != nullptr) rt_->unregister_structure(struct_id_);
  }
  FtQr(const FtQr&) = delete;
  FtQr& operator=(const FtQr&) = delete;

  /// Factor panel block-columns up to `k_end` through a memory backend
  /// (common/backend.hpp), verifying before each panel. With a
  /// RecoveryManager attached the verification point walks the
  /// escalation ladder: trailing-block recompute from the original input
  /// (replaying the stored reflectors), then rollback to the last verified
  /// panel-boundary checkpoint, then kUnrecoverable.
  template <MemBackend B>
  FtStatus factor_steps(std::size_t k_end, B& be) {
    clock_ = be.clock();
    auto tap = be.tap();
    recovery::RecoveryManager* rm = recovery_manager();
    ABFTECC_REQUIRE(k_end <= n_ && k_end >= next_k_);
    while (next_k_ < k_end) {
      const FtStatus vst = checked_verify(rm, be);
      if (vst == FtStatus::kUncorrectable || vst == FtStatus::kUnrecoverable)
        return vst;
      const std::size_t k = next_k_;
      const std::size_t b = std::min(nb_, k_end - k);
      // Factor panel columns [k, k+b), transforming everything to their
      // right -- the two checksum columns included.
      linalg::geqrf(buf_.aw.block(k, k, m_ - k, n_ + 2 - k),
                    buf_.tau.subspan(k, b), n_ + 2 - k - b, tap);
      next_k_ = k + b;
    }
    return FtStatus::kOk;
  }

  /// Full factorization with a final verification pass.
  template <MemBackend B>
  FtStatus factor(B& be) {
    const FtStatus st = factor_steps(n_, be);
    if (st != FtStatus::kOk) return st;
    const FtStatus vst = checked_verify(recovery_manager(), be);
    if (vst == FtStatus::kUncorrectable || vst == FtStatus::kUnrecoverable)
      return vst;
    return stats_.errors_corrected > 0 ? FtStatus::kCorrectedErrors
                                       : FtStatus::kOk;
  }

  /// Verify every row's live range against its two checksum entries and
  /// repair single-per-row errors (public for tests and for callers that
  /// interleave their own work).
  template <MemBackend B>
  FtStatus verify_and_correct(B& be) {
    clock_ = be.clock();
    auto tap = be.tap();
    ++stats_.verifications;
    ScopedPhase phase(rt_, obs::EventKind::kVerify, "ft_qr.verify");
    if (opt_.hardware_assisted && rt_ != nullptr &&
        rt_->hardware_assisted_available()) {
      PhaseTimer t(stats_.verify_seconds, clock_);
      if (!rt_->errors_pending()) return FtStatus::kOk;
      rt_->drain_located_errors();  // location known; full pass repairs
    }
    PhaseTimer t(stats_.verify_seconds, clock_);
    const double threshold =
        opt_.tolerance * scale_ * static_cast<double>(n_);
    const double wthreshold = threshold * static_cast<double>(n_);
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t j0 = live_start(i);
      double s = 0.0, w = 0.0;
      for (std::size_t j = j0; j < n_; ++j) {
        tap.read(&buf_.aw(i, j));
        s += buf_.aw(i, j);
        w += static_cast<double>(j + 1) * buf_.aw(i, j);
      }
      tap.read(&buf_.aw(i, n_));
      tap.read(&buf_.aw(i, n_ + 1));
      const double ds = s - buf_.aw(i, n_);
      const double dw = w - buf_.aw(i, n_ + 1);
      const bool sum_bad = std::abs(ds) > threshold;
      const bool w_bad = std::abs(dw) > wthreshold;
      if (!sum_bad && !w_bad) continue;
      ++stats_.errors_detected;
      PhaseTimer tc(stats_.correct_seconds, clock_);
      if (sum_bad && !w_bad) {
        // Only the sum checksum entry disagrees: it is the corrupted one.
        tap.write(&buf_.aw(i, n_));
        buf_.aw(i, n_) = s;
        ++stats_.errors_corrected;
        continue;
      }
      if (!sum_bad && w_bad) {
        tap.write(&buf_.aw(i, n_ + 1));
        buf_.aw(i, n_ + 1) = w;
        ++stats_.errors_corrected;
        continue;
      }
      // Payload error: column = dw/ds - 1, consistency-checked.
      const auto col = static_cast<long long>(std::llround(dw / ds - 1.0));
      if (col < static_cast<long long>(j0) ||
          col >= static_cast<long long>(n_) ||
          std::abs(dw - ds * static_cast<double>(col + 1)) > wthreshold)
        return FtStatus::kUncorrectable;
      tap.update(&buf_.aw(i, static_cast<std::size_t>(col)));
      buf_.aw(i, static_cast<std::size_t>(col)) -= ds;
      ++stats_.errors_corrected;
    }
    return FtStatus::kOk;
  }

  /// Solve A x = b (or least squares for m > n) from the factored form.
  void solve(std::span<const double> b, std::span<double> x) const {
    linalg::qr_solve(ConstMatrixView(buf_.aw), buf_.tau, b, x, 2);
  }

  [[nodiscard]] const FtStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t next_block() const { return next_k_; }
  /// The R factor (upper triangle of the factored storage).
  [[nodiscard]] ConstMatrixView factored() const {
    return ConstMatrixView(buf_.aw);
  }

 private:
  /// First column of row i that belongs to the transformed matrix (R for
  /// frozen rows, trailing block otherwise); everything left of it stores
  /// Householder vectors.
  [[nodiscard]] std::size_t live_start(std::size_t i) const {
    return std::min(i, next_k_);
  }

  [[nodiscard]] recovery::RecoveryManager* recovery_manager() const {
    return rt_ != nullptr ? rt_->recovery() : nullptr;
  }

  /// One ladder episode around the pre-panel verification point. Bounded:
  /// every loop iteration either returns or consumes tier budget.
  template <MemBackend B>
  FtStatus checked_verify(recovery::RecoveryManager* rm, B& be) {
    bool recompute_pending = false;
    for (;;) {
      const FtStatus st = verify_and_correct(be);
      if (rm == nullptr) return st;
      // Corruption outside the checksum columns' reach (reflector storage,
      // untracked allocations) surfaces as an OS rollback demand and
      // overrides a clean checksum verdict.
      if (rm->rollback_demanded()) {
        if (!attempt_rollback(rm)) return fail_unrecoverable(rm);
        recompute_pending = false;
        continue;
      }
      if (st != FtStatus::kUncorrectable) {
        if (recompute_pending) rm->recompute_succeeded();
        if (st == FtStatus::kOk || st == FtStatus::kCorrectedErrors)
          rm->checkpoint_tick(next_k_);
        return st;
      }
      if (rm->try_recompute()) {  // tier 2
        recompute_trailing(be.tap());
        recompute_pending = true;
        continue;
      }
      if (attempt_rollback(rm)) {  // tier 3
        recompute_pending = false;
        continue;
      }
      return fail_unrecoverable(rm);  // tier 4
    }
  }

  /// Verified restore; rewinds the factorization to the restored
  /// panel-boundary epoch (aw and tau come back as one snapshot).
  bool attempt_rollback(recovery::RecoveryManager* rm) {
    if (!rm->try_rollback()) return false;
    if (rm->rollback() != recovery::RestoreResult::kOk) return false;
    next_k_ = static_cast<std::size_t>(rm->store().epoch());
    return true;
  }

  FtStatus fail_unrecoverable(recovery::RecoveryManager* rm) {
    rm->mark_unrecoverable();
    return FtStatus::kUnrecoverable;
  }

  /// Tier 2: regenerate the trailing block and both checksum columns from
  /// the ORIGINAL input by replaying the stored reflectors 0..next_k_-1.
  /// Valid because every column j >= next_k_ of the factored storage is
  /// exactly Q_{next_k_}^T applied to the original column (frozen R rows
  /// included); the Householder vectors below the diagonal are left alone.
  /// Requires intact reflector storage -- if that is what the fault hit,
  /// re-verification fails and the ladder escalates to rollback.
  template <MemTap Tap>
  void recompute_trailing(Tap tap) {
    PhaseTimer t(stats_.correct_seconds, clock_);
    ScopedPhase phase(rt_, obs::EventKind::kRecover, "ft_qr.recompute",
                      obs::Phase::kRecompute);
    std::vector<double> tmp(m_);
    for (std::size_t j = next_k_; j < n_ + 2; ++j) {
      // Original column: payload, row sums, or weighted row sums.
      for (std::size_t i = 0; i < m_; ++i) {
        if (j < n_) {
          tap.read(&a_(i, j));
          tmp[i] = a_(i, j);
        } else {
          double s = 0.0;
          const bool weighted = j == n_ + 1;
          for (std::size_t c = 0; c < n_; ++c) {
            tap.read(&a_(i, c));
            s += (weighted ? static_cast<double>(c + 1) : 1.0) * a_(i, c);
          }
          tmp[i] = s;
        }
      }
      // Replay reflectors: v(k) = 1 implicit, essentials in aw below the
      // diagonal (same application order/convention as linalg::geqrf).
      for (std::size_t k = 0; k < next_k_; ++k) {
        double dot = tmp[k];
        for (std::size_t r = k + 1; r < m_; ++r) {
          tap.read(&buf_.aw(r, k));
          dot += buf_.aw(r, k) * tmp[r];
        }
        dot *= buf_.tau[k];
        tmp[k] -= dot;
        for (std::size_t r = k + 1; r < m_; ++r) tmp[r] -= dot * buf_.aw(r, k);
      }
      for (std::size_t i = 0; i < m_; ++i) {
        tap.write(&buf_.aw(i, j));
        buf_.aw(i, j) = tmp[i];
      }
    }
  }

  void encode(ConstMatrixView a) {
    PhaseTimer t(stats_.encode_seconds, clock_);
    ScopedPhase phase(rt_, obs::EventKind::kEncode, "ft_qr.encode");
    for (std::size_t i = 0; i < m_; ++i) {
      double s = 0.0, w = 0.0;
      for (std::size_t j = 0; j < n_; ++j) {
        buf_.aw(i, j) = a(i, j);
        s += a(i, j);
        w += static_cast<double>(j + 1) * a(i, j);
      }
      buf_.aw(i, n_) = s;
      buf_.aw(i, n_ + 1) = w;
    }
    scale_ = mean_abs(a);
    if (scale_ == 0.0) scale_ = 1.0;
  }

  ConstMatrixView a_;  ///< original input, the tier-2 recompute source
  std::size_t m_, n_;
  Buffers buf_;
  FtOptions opt_;
  Runtime* rt_;
  TickClock clock_;  ///< FtStats time source: the current backend's clock
  std::size_t nb_;
  std::size_t struct_id_ = 0;
  std::size_t next_k_ = 0;
  double scale_ = 1.0;
  FtStats stats_;
  recovery::CheckpointStore::RangeId track_ids_[2] = {};
  bool tracked_ = false;
};

}  // namespace abftecc::abft

// FT-HPL: fault-tolerant LU / Linpack solver for fail-stop errors
// (Section 2.1, after Davies et al.).
//
// Layout models a 1D row-block distribution over `processes` MPI ranks:
// rank p owns original rows [p*h, (p+1)*h), h = n/processes. The encoded
// matrix is
//     Ae = [ A  b ]        (n rows; b rides along as column n, so forward
//          [ C  c ]         elimination is applied to it on the fly)
// with h checksum rows at the bottom: C(c,:) = sum over ranks of original
// row p*h + c. Checksum rows take part in the elimination as ordinary
// (never-pivoted) rows; the algebra then keeps each checksum row equal to
// the sum of its group's still-ACTIVE rows at every step. Rows frozen into
// U stop being updated, so a second, static checksum block U_C accumulates
// each row as it freezes (O(n) per row). A fail-stop failure of rank p at a
// block-iteration boundary is then fully recoverable:
//   * active lost rows   from C  minus the surviving active group members,
//   * frozen lost U rows from U_C minus the surviving frozen members.
// Pivot row swaps are global knowledge (HPL broadcasts them), tracked in a
// position <-> original-row mapping. The same active checksums double as a
// soft-error detector over the trailing matrix.
#pragma once

#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

#include "abft/checksum.hpp"
#include "abft/common.hpp"
#include "abft/runtime.hpp"
#include "linalg/blas.hpp"

namespace abftecc::abft {

class FtHpl {
 public:
  struct Buffers {
    /// (n + h) x (n + 1) for fail-stop only, or (n + h + 2) x (n + 1) to
    /// additionally enable fail-continue soft-error correction: the two
    /// extra bottom rows carry the global sum / weighted checksums.
    MatrixView ae;
    MatrixView uc;  ///< h x (n + 1): static frozen-row checksums, zeroed
  };

  /// Encodes [A b] into `buf` untapped (`a` and `b` may be host memory),
  /// timed on the clock of `be`, the backend the kernel will run on.
  template <MemBackend B>
  FtHpl(B& be, ConstMatrixView a, std::span<const double> b,
        std::size_t processes, Buffers buf, FtOptions opt = {},
        Runtime* runtime = nullptr, std::size_t block = linalg::kBlock)
      : n_(a.rows()),
        nproc_(processes),
        h_(a.rows() / processes),
        buf_(buf),
        opt_(opt),
        rt_(runtime),
        clock_(be.clock()),
        nb_(block) {
    ABFTECC_REQUIRE(a.cols() == n_ && b.size() == n_);
    ABFTECC_REQUIRE(processes >= 2 && n_ % processes == 0);
    ABFTECC_REQUIRE(buf.ae.rows() == n_ + h_ || buf.ae.rows() == n_ + h_ + 2);
    soft_ = buf.ae.rows() == n_ + h_ + 2;
    ABFTECC_REQUIRE(buf.ae.cols() == n_ + 1);
    ABFTECC_REQUIRE(buf.uc.rows() == h_ && buf.uc.cols() == n_ + 1);
    encode(a, b);
    if (rt_ != nullptr)
      struct_id_ = rt_->register_structure("ft_hpl.Ae", buf_.ae.data(),
                                           buf_.ae.ld() * buf_.ae.cols());
  }

  ~FtHpl() {
    if (rt_ != nullptr) rt_->unregister_structure(struct_id_);
  }
  FtHpl(const FtHpl&) = delete;
  FtHpl& operator=(const FtHpl&) = delete;

  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] std::size_t rows_per_process() const { return h_; }
  [[nodiscard]] bool soft_correction_enabled() const { return soft_; }
  [[nodiscard]] std::size_t next_block() const { return next_k_; }
  [[nodiscard]] const FtStats& stats() const { return stats_; }

  /// Factor block-columns [next_block(), k_end) through a memory backend
  /// (common/backend.hpp): tap and FtStats time source both come from the
  /// backend. Returns kNumericalFailure on an exactly singular pivot column.
  template <MemBackend B>
  FtStatus factor_steps(std::size_t k_end, B& be) {
    clock_ = be.clock();
    auto tap = be.tap();
    ABFTECC_REQUIRE(k_end <= n_ && k_end >= next_k_);
    std::size_t since_verify = 0;
    while (next_k_ < k_end) {
      const std::size_t k = next_k_;
      const std::size_t b = std::min(nb_, k_end - k);
      if (!panel(k, b, tap)) return FtStatus::kNumericalFailure;
      if (k + b < n_ + 1) {
        // U12 including the carried b column.
        linalg::trsm_left_lower_unit(
            ConstMatrixView(buf_.ae.block(k, k, b, b)),
            buf_.ae.block(k, k + b, b, n_ + 1 - k - b), tap);
      }
      freeze_rows(k, b, tap);
      if (k + b < n_ + 1 && k + b < total_rows()) {
        linalg::gemm(
            -1.0,
            ConstMatrixView(buf_.ae.block(k + b, k, total_rows() - k - b, b)),
            ConstMatrixView(buf_.ae.block(k, k + b, b, n_ + 1 - k - b)), 1.0,
            buf_.ae.block(k + b, k + b, total_rows() - k - b,
                          n_ + 1 - k - b),
            tap);
      }
      next_k_ = k + b;
      if (++since_verify >= opt_.verify_period) {
        since_verify = 0;
        if (verify_active(be) == FtStatus::kUncorrectable)
          return FtStatus::kUncorrectable;
      }
    }
    return FtStatus::kOk;
  }

  /// Full factorization.
  template <MemBackend B>
  FtStatus factor(B& be) {
    const FtStatus st = factor_steps(n_, be);
    if (st != FtStatus::kOk) return st;
    const FtStatus vst = verify_active(be);
    if (vst == FtStatus::kUncorrectable) return vst;
    return stats_.errors_corrected > 0 ? FtStatus::kCorrectedErrors
                                       : FtStatus::kOk;
  }

  /// Fail-stop: wipe every row owned by `process` (wherever pivoting moved
  /// it). Call at a block boundary, then recover_process().
  void simulate_failstop(std::size_t process) {
    ABFTECC_REQUIRE(process < nproc_);
    for (std::size_t o = process * h_; o < (process + 1) * h_; ++o) {
      const std::size_t pos = pos_of_orig_[o];
      for (std::size_t j = 0; j < n_ + 1; ++j) buf_.ae(pos, j) = 0.0;
    }
  }

  /// Rebuild the lost rank's rows from the two checksum blocks.
  template <MemBackend B>
  FtStatus recover_process(std::size_t process, B& be) {
    clock_ = be.clock();
    auto tap = be.tap();
    ABFTECC_REQUIRE(process < nproc_);
    PhaseTimer t(stats_.correct_seconds, clock_);
    ScopedPhase phase(rt_, obs::EventKind::kRecover, "ft_hpl.recover");
    const std::size_t k = next_k_;
    for (std::size_t o = process * h_; o < (process + 1) * h_; ++o) {
      const std::size_t c = o % h_;
      const std::size_t pos = pos_of_orig_[o];
      const bool frozen = pos < k;
      // Columns left of k in an active row are L multipliers from past
      // panels; they are not needed for the solve (b already carries the
      // eliminations), so active rows are rebuilt for columns >= k only.
      const std::size_t j0 = frozen ? 0 : k;
      for (std::size_t j = j0; j < n_ + 1; ++j) {
        double v;
        if (frozen) {
          tap.read(&buf_.uc(c, j));
          v = buf_.uc(c, j);
        } else {
          tap.read(&buf_.ae(n_ + c, j));
          v = buf_.ae(n_ + c, j);
        }
        for (std::size_t p2 = 0; p2 < nproc_; ++p2) {
          if (p2 == process) continue;
          const std::size_t o2 = p2 * h_ + c;
          const std::size_t pos2 = pos_of_orig_[o2];
          if ((pos2 < k) != frozen) continue;  // other member, other state
          tap.read(&buf_.ae(pos2, j));
          v -= buf_.ae(pos2, j);
        }
        tap.write(&buf_.ae(pos, j));
        buf_.ae(pos, j) = v;
      }
      ++stats_.errors_corrected;
    }
    ++stats_.errors_detected;
    return FtStatus::kCorrectedErrors;
  }

  /// Soft-error check: every group's active rows must sum to its checksum
  /// row over the trailing columns. Detection only (fail-stop is the
  /// kernel's recovery target); returns kUncorrectable on mismatch so the
  /// caller can fall back.
  template <MemBackend B>
  FtStatus verify_active(B& be) {
    clock_ = be.clock();
    auto tap = be.tap();
    ++stats_.verifications;
    ScopedPhase phase(rt_, obs::EventKind::kVerify, "ft_hpl.verify");
    if (opt_.hardware_assisted && rt_ != nullptr &&
        rt_->hardware_assisted_available()) {
      PhaseTimer t(stats_.verify_seconds, clock_);
      if (!rt_->errors_pending()) return FtStatus::kOk;
      rt_->drain_located_errors();
      ++stats_.hw_notifications_used;
      ++stats_.errors_detected;
      return FtStatus::kUncorrectable;  // located but repair is fail-stop's
    }
    PhaseTimer t(stats_.verify_seconds, clock_);
    const std::size_t k = next_k_;
    const double threshold = opt_.tolerance * scale_ *
                             static_cast<double>(n_) *
                             static_cast<double>(nproc_);
    if (soft_) {
      // Fail-continue pass (FT-LU): one corrupted element per trailing
      // column is located from the global sum/weighted rows and repaired
      // before the group-checksum backstop below runs.
      const FtStatus st = soft_correct(k, threshold, tap);
      if (st == FtStatus::kUncorrectable) return st;
    }
    for (std::size_t c = 0; c < h_; ++c) {
      for (std::size_t j = k; j < n_ + 1; ++j) {
        double s = 0.0;
        for (std::size_t p = 0; p < nproc_; ++p) {
          const std::size_t pos = pos_of_orig_[p * h_ + c];
          if (pos < k) continue;  // frozen rows left the running checksum
          tap.read(&buf_.ae(pos, j));
          s += buf_.ae(pos, j);
        }
        tap.read(&buf_.ae(n_ + c, j));
        if (std::abs(s - buf_.ae(n_ + c, j)) > threshold) {
          ++stats_.errors_detected;
          return FtStatus::kUncorrectable;
        }
      }
    }
    return FtStatus::kOk;
  }

  /// Back-substitution after factor(): U x = (forward-eliminated b).
  /// Untapped: the representative (timed) phase is the factorization.
  void solve(std::span<double> x) const {
    ABFTECC_REQUIRE(x.size() == n_);
    for (std::size_t i = 0; i < n_; ++i) x[i] = buf_.ae(i, n_);
    linalg::trsv_upper(ConstMatrixView(buf_.ae).block(0, 0, n_, n_), x);
  }

  [[nodiscard]] std::size_t position_of_original_row(std::size_t o) const {
    ABFTECC_REQUIRE(o < n_);
    return pos_of_orig_[o];
  }

 private:
  void encode(ConstMatrixView a, std::span<const double> b) {
    PhaseTimer t(stats_.encode_seconds, clock_);
    ScopedPhase phase(rt_, obs::EventKind::kEncode, "ft_hpl.encode");
    for (std::size_t j = 0; j < n_; ++j)
      for (std::size_t i = 0; i < n_; ++i) buf_.ae(i, j) = a(i, j);
    for (std::size_t i = 0; i < n_; ++i) buf_.ae(i, n_) = b[i];
    // Active checksum rows: C(c, :) = sum over ranks of row p*h + c.
    for (std::size_t c = 0; c < h_; ++c) {
      for (std::size_t j = 0; j < n_ + 1; ++j) {
        double s = 0.0;
        for (std::size_t p = 0; p < nproc_; ++p) s += buf_.ae(p * h_ + c, j);
        buf_.ae(n_ + c, j) = s;
      }
    }
    if (soft_) {
      // Global sum / weighted checksum rows over all real rows; weights
      // are the ORIGINAL row ids + 1, so pivot swaps never perturb them.
      for (std::size_t j = 0; j < n_ + 1; ++j) {
        double sum = 0.0, wsum = 0.0;
        for (std::size_t i = 0; i < n_; ++i) {
          sum += buf_.ae(i, j);
          wsum += static_cast<double>(i + 1) * buf_.ae(i, j);
        }
        buf_.ae(n_ + h_, j) = sum;
        buf_.ae(n_ + h_ + 1, j) = wsum;
      }
    }
    buf_.uc.fill(0.0);
    pos_of_orig_.resize(n_);
    orig_of_pos_.resize(n_);
    std::iota(pos_of_orig_.begin(), pos_of_orig_.end(), std::size_t{0});
    std::iota(orig_of_pos_.begin(), orig_of_pos_.end(), std::size_t{0});
    scale_ = mean_abs(a);
    if (scale_ == 0.0) scale_ = 1.0;
  }

  /// Unblocked panel factorization of columns [k, k+b): pivot search over
  /// real rows only, full-width swaps, elimination over ALL rows below --
  /// including the checksum rows, which thereby maintain themselves.
  template <MemTap Tap>
  bool panel(std::size_t k, std::size_t b, Tap tap) {
    for (std::size_t j = k; j < k + b; ++j) {
      std::size_t p = j;
      double best = 0.0;
      for (std::size_t i = j; i < n_; ++i) {
        tap.read(&buf_.ae(i, j));
        const double v = std::abs(buf_.ae(i, j));
        if (v > best) {
          best = v;
          p = i;
        }
      }
      if (best == 0.0) return false;
      if (p != j) {
        for (std::size_t col = 0; col < n_ + 1; ++col) {
          tap.update(&buf_.ae(j, col));
          tap.update(&buf_.ae(p, col));
          std::swap(buf_.ae(j, col), buf_.ae(p, col));
        }
        const std::size_t oj = orig_of_pos_[j], op = orig_of_pos_[p];
        std::swap(orig_of_pos_[j], orig_of_pos_[p]);
        pos_of_orig_[oj] = p;
        pos_of_orig_[op] = j;
      }
      piv_.push_back(p);
      tap.read(&buf_.ae(j, j));
      const double inv = 1.0 / buf_.ae(j, j);
      for (std::size_t i = j + 1; i < total_rows(); ++i) {
        tap.update(&buf_.ae(i, j));
        buf_.ae(i, j) *= inv;
      }
      for (std::size_t col = j + 1; col < k + b; ++col) {
        tap.read(&buf_.ae(j, col));
        const double u = buf_.ae(j, col);
        if (u == 0.0) continue;
        for (std::size_t i = j + 1; i < total_rows(); ++i) {
          tap.read(&buf_.ae(i, j));
          tap.update(&buf_.ae(i, col));
          buf_.ae(i, col) -= buf_.ae(i, j) * u;
        }
      }
    }
    return true;
  }

  /// Accumulate freshly frozen U rows into the static checksum block.
  template <MemTap Tap>
  void freeze_rows(std::size_t k, std::size_t b, Tap tap) {
    PhaseTimer t(stats_.encode_seconds, clock_);
    ScopedPhase phase(rt_, obs::EventKind::kEncode, "ft_hpl.encode");
    for (std::size_t pos = k; pos < k + b; ++pos) {
      const std::size_t c = orig_of_pos_[pos] % h_;
      for (std::size_t j = 0; j < n_ + 1; ++j) {
        tap.read(&buf_.ae(pos, j));
        tap.update(&buf_.uc(c, j));
        buf_.uc(c, j) += buf_.ae(pos, j);
      }
    }
  }

  [[nodiscard]] std::size_t total_rows() const {
    return n_ + h_ + (soft_ ? 2 : 0);
  }

  /// FT-LU soft-error correction over the active trailing region, using
  /// the global checksum rows: residual sum locates the magnitude, the
  /// weighted/sum ratio the ORIGINAL row id (pivot-proof by construction).
  template <MemTap Tap>
  FtStatus soft_correct(std::size_t k, double threshold, Tap tap) {
    for (std::size_t j = k; j < n_ + 1; ++j) {
      double sum = 0.0, wsum = 0.0;
      for (std::size_t o = 0; o < n_; ++o) {
        const std::size_t pos = pos_of_orig_[o];
        if (pos < k) continue;  // frozen U rows left the running checksums
        tap.read(&buf_.ae(pos, j));
        sum += buf_.ae(pos, j);
        wsum += static_cast<double>(o + 1) * buf_.ae(pos, j);
      }
      tap.read(&buf_.ae(n_ + h_, j));
      tap.read(&buf_.ae(n_ + h_ + 1, j));
      const double ds = sum - buf_.ae(n_ + h_, j);
      if (std::abs(ds) <= threshold) continue;
      ++stats_.errors_detected;
      PhaseTimer t(stats_.correct_seconds, clock_);
      ScopedPhase sp(rt_, obs::EventKind::kRecover, "ft_hpl.correct");
      const double dw = wsum - buf_.ae(n_ + h_ + 1, j);
      const auto orig = static_cast<long long>(std::llround(dw / ds - 1.0));
      if (orig < 0 || orig >= static_cast<long long>(n_) ||
          std::abs(dw - ds * static_cast<double>(orig + 1)) >
              threshold * static_cast<double>(n_))
        return FtStatus::kUncorrectable;
      const std::size_t pos = pos_of_orig_[static_cast<std::size_t>(orig)];
      if (pos < k) return FtStatus::kUncorrectable;  // points at frozen row
      tap.update(&buf_.ae(pos, j));
      buf_.ae(pos, j) -= ds;
      ++stats_.errors_corrected;
    }
    return FtStatus::kOk;
  }

  std::size_t n_, nproc_, h_;
  Buffers buf_;
  FtOptions opt_;
  Runtime* rt_;
  TickClock clock_;  ///< FtStats time source: the current backend's clock
  std::size_t nb_;
  std::size_t struct_id_ = 0;
  std::size_t next_k_ = 0;
  bool soft_ = false;
  double scale_ = 1.0;
  std::vector<std::size_t> pos_of_orig_, orig_of_pos_;
  std::vector<std::size_t> piv_;
  FtStats stats_;
};

}  // namespace abftecc::abft

// FT-DGEMM with dual checksum vectors -- the "sophisticated checksum
// vectors" capability of Section 2.1 ("this ABFT algorithm can detect or
// correct multiple errors in each examining period").
//
// On top of the sum checksums of FtDgemm, every matrix carries a weighted
// checksum (weights w_i = i+1):
//     A^c = [A; e^T A; w^T A]        ((m+2) x k)
//     B^r = [B, B e, B w]            (k x (n+2))
// so the running product holds four residual families per verification:
// column sum + column weighted, row sum + row weighted. A single corrupted
// element is located from one column's (sum, weighted) pair alone; TWO
// errors in the same column are solved exactly from the 2x2 linear system
// their residuals form once the row set is known from the row residuals --
// which makes the classic uncorrectable pattern of the single-checksum
// code, the 2x2 equal-magnitude grid, fully correctable here.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "abft/checksum.hpp"
#include "abft/common.hpp"
#include "abft/runtime.hpp"
#include "linalg/blas.hpp"

namespace abftecc::abft {

class FtDgemmDual {
 public:
  struct Buffers {
    MatrixView ac;  ///< (m+2) x k
    MatrixView br;  ///< k x (n+2)
    MatrixView cf;  ///< (m+2) x (n+2), zeroed by encode()
  };

  FtDgemmDual(ConstMatrixView a, ConstMatrixView b, Buffers buf,
              FtOptions opt = {}, Runtime* runtime = nullptr)
      : a_(a), b_(b), buf_(buf), opt_(opt), rt_(runtime) {
    ABFTECC_REQUIRE(a.cols() == b.rows());
    ABFTECC_REQUIRE(buf.ac.rows() == a.rows() + 2 && buf.ac.cols() == a.cols());
    ABFTECC_REQUIRE(buf.br.rows() == b.rows() && buf.br.cols() == b.cols() + 2);
    ABFTECC_REQUIRE(buf.cf.rows() == a.rows() + 2 &&
                    buf.cf.cols() == b.cols() + 2);
    if (rt_ != nullptr)
      struct_id_ = rt_->register_structure("ft_dgemm_dual.C", buf_.cf.data(),
                                           buf_.cf.ld() * buf_.cf.cols());
  }

  ~FtDgemmDual() {
    if (rt_ != nullptr) rt_->unregister_structure(struct_id_);
  }
  FtDgemmDual(const FtDgemmDual&) = delete;
  FtDgemmDual& operator=(const FtDgemmDual&) = delete;

  /// Run through a memory backend (common/backend.hpp): tap and FtStats
  /// time source both come from the backend.
  template <MemBackend B>
  FtStatus run(B& be) {
    clock_ = be.clock();
    auto tap = be.tap();
    encode(tap);
    const std::size_t kk = a_.cols();
    std::size_t since_verify = 0;
    for (std::size_t k0 = 0; k0 < kk; k0 += linalg::kBlock) {
      const std::size_t klen = std::min(linalg::kBlock, kk - k0);
      linalg::gemm(1.0,
                   ConstMatrixView(buf_.ac.block(0, k0, buf_.ac.rows(), klen)),
                   ConstMatrixView(buf_.br.block(k0, 0, klen, buf_.br.cols())),
                   1.0, buf_.cf, tap);
      if (++since_verify >= opt_.verify_period) {
        since_verify = 0;
        if (verify_and_correct(be) == FtStatus::kUncorrectable)
          return FtStatus::kUncorrectable;
      }
    }
    if (verify_and_correct(be) == FtStatus::kUncorrectable)
      return FtStatus::kUncorrectable;
    return stats_.errors_corrected > 0 ? FtStatus::kCorrectedErrors
                                       : FtStatus::kOk;
  }

  template <MemBackend B>
  FtStatus verify_and_correct(B& be) {
    clock_ = be.clock();
    ++stats_.verifications;
    ScopedPhase phase(rt_, obs::EventKind::kVerify, "ft_dgemm_dual.verify");
    PhaseTimer t(stats_.verify_seconds, clock_);
    return full_verify(be.tap());
  }

  [[nodiscard]] ConstMatrixView result() const {
    return ConstMatrixView(buf_.cf).block(0, 0, a_.rows(), b_.cols());
  }
  [[nodiscard]] const FtStats& stats() const { return stats_; }

 private:
  template <MemTap Tap>
  void encode(Tap tap) {
    PhaseTimer t(stats_.encode_seconds, clock_);
    ScopedPhase phase(rt_, obs::EventKind::kEncode, "ft_dgemm_dual.encode");
    const std::size_t m = a_.rows(), n = b_.cols(), kk = a_.cols();
    for (std::size_t j = 0; j < kk; ++j) {
      double s = 0.0, w = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        tap.read(&a_(i, j));
        tap.write(&buf_.ac(i, j));
        buf_.ac(i, j) = a_(i, j);
        s += a_(i, j);
        w += static_cast<double>(i + 1) * a_(i, j);
      }
      tap.write(&buf_.ac(m, j));
      tap.write(&buf_.ac(m + 1, j));
      buf_.ac(m, j) = s;
      buf_.ac(m + 1, j) = w;
    }
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < kk; ++i) {
        tap.read(&b_(i, j));
        tap.write(&buf_.br(i, j));
        buf_.br(i, j) = b_(i, j);
      }
    }
    for (std::size_t i = 0; i < kk; ++i) {
      double s = 0.0, w = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        tap.read(&b_(i, j));
        s += b_(i, j);
        w += static_cast<double>(j + 1) * b_(i, j);
      }
      tap.write(&buf_.br(i, n));
      tap.write(&buf_.br(i, n + 1));
      buf_.br(i, n) = s;
      buf_.br(i, n + 1) = w;
    }
    buf_.cf.fill(0.0);
    scale_ = mean_abs(a_) * mean_abs(b_) * static_cast<double>(kk);
    if (scale_ == 0.0) scale_ = 1.0;
  }

  /// Residuals of one column j against both its checksum entries.
  struct ColResidual {
    double ds = 0.0;  ///< sum residual
    double dw = 0.0;  ///< weighted residual
  };

  template <MemTap Tap>
  ColResidual column_residual(std::size_t j, Tap tap) {
    const std::size_t m = a_.rows();
    double s = 0.0, w = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      tap.read(&buf_.cf(i, j));
      s += buf_.cf(i, j);
      w += static_cast<double>(i + 1) * buf_.cf(i, j);
    }
    tap.read(&buf_.cf(m, j));
    tap.read(&buf_.cf(m + 1, j));
    return {s - buf_.cf(m, j), w - buf_.cf(m + 1, j)};
  }

  template <MemTap Tap>
  FtStatus full_verify(Tap tap) {
    const std::size_t m = a_.rows(), n = b_.cols();
    const double threshold =
        opt_.tolerance * scale_ * std::sqrt(static_cast<double>(m));
    const double wthreshold = threshold * static_cast<double>(m);

    // Row-side sum residuals identify candidate rows.
    std::vector<std::size_t> bad_rows;
    for (std::size_t i = 0; i < m; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        tap.read(&buf_.cf(i, j));
        s += buf_.cf(i, j);
      }
      tap.read(&buf_.cf(i, n));
      if (std::abs(s - buf_.cf(i, n)) > threshold) bad_rows.push_back(i);
    }

    bool corrected_any = false;
    std::size_t columns_fixed = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const ColResidual res = column_residual(j, tap);
      if (std::abs(res.ds) <= threshold && std::abs(res.dw) <= wthreshold)
        continue;
      ++stats_.errors_detected;
      PhaseTimer t(stats_.correct_seconds, clock_);
      ScopedPhase sp(rt_, obs::EventKind::kRecover, "ft_dgemm_dual.correct");

      // Hypothesis 1: a single error in this column. The weighted/sum
      // ratio locates a row, but an equal-magnitude error PAIR aliases to
      // a phantom single error at the midpoint row -- so the located row
      // must also be corroborated by the row-side residuals.
      bool single_consistent = false;
      long long row1 = -1;
      if (std::abs(res.ds) > threshold) {
        row1 = static_cast<long long>(std::llround(res.dw / res.ds - 1.0));
        single_consistent =
            row1 >= 0 && row1 < static_cast<long long>(m) &&
            std::abs(res.dw - res.ds * static_cast<double>(row1 + 1)) <=
                wthreshold;
      }
      const bool row1_flagged =
          single_consistent &&
          std::find(bad_rows.begin(), bad_rows.end(),
                    static_cast<std::size_t>(row1)) != bad_rows.end();
      if (row1_flagged) {
        tap.update(&buf_.cf(static_cast<std::size_t>(row1), j));
        buf_.cf(static_cast<std::size_t>(row1), j) -= res.ds;
        ++stats_.errors_corrected;
        corrected_any = true;
        ++columns_fixed;
        continue;
      }
      // Hypothesis 2: two errors, in the rows the row residuals flagged:
      //   d1 + d2            = ds
      //   (i1+1)d1 + (i2+1)d2 = dw
      if (bad_rows.size() == 2) {
        const double i1 = static_cast<double>(bad_rows[0] + 1);
        const double i2 = static_cast<double>(bad_rows[1] + 1);
        const double d2 = (res.dw - i1 * res.ds) / (i2 - i1);
        const double d1 = res.ds - d2;
        tap.update(&buf_.cf(bad_rows[0], j));
        tap.update(&buf_.cf(bad_rows[1], j));
        buf_.cf(bad_rows[0], j) -= d1;
        buf_.cf(bad_rows[1], j) -= d2;
        stats_.errors_corrected += 2;
        corrected_any = true;
        ++columns_fixed;
        continue;
      }
      // Hypothesis 3: only the column's checksum entries are corrupted
      // (no payload row flagged): refresh them.
      if (bad_rows.empty() && !single_consistent) {
        refresh_column_checksums(j, tap);
        ++stats_.errors_corrected;
        corrected_any = true;
        continue;
      }
      // Fallback: a consistent single location without row corroboration
      // (possible when the same row carries compensating errors in other
      // columns) -- accept only when the pair solver had no candidates.
      if (single_consistent && bad_rows.size() != 2) {
        tap.update(&buf_.cf(static_cast<std::size_t>(row1), j));
        buf_.cf(static_cast<std::size_t>(row1), j) -= res.ds;
        ++stats_.errors_corrected;
        corrected_any = true;
        ++columns_fixed;
        continue;
      }
      return FtStatus::kUncorrectable;
    }

    // Leftover bad rows with no bad column: corrupted row-checksum entries.
    if (columns_fixed == 0 && !bad_rows.empty()) {
      PhaseTimer t(stats_.correct_seconds, clock_);
      ScopedPhase sp(rt_, obs::EventKind::kRecover, "ft_dgemm_dual.correct");
      for (const std::size_t i : bad_rows) {
        refresh_row_checksums(i, tap);
        ++stats_.errors_detected;
        ++stats_.errors_corrected;
      }
      corrected_any = true;
    } else if (columns_fixed > 0 && !bad_rows.empty()) {
      // Row-side damage should have been cleared by the column fixes;
      // verify cheaply and refuse if anything still disagrees.
      for (const std::size_t i : bad_rows) {
        double s = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
          tap.read(&buf_.cf(i, j));
          s += buf_.cf(i, j);
        }
        tap.read(&buf_.cf(i, n));
        if (std::abs(s - buf_.cf(i, n)) > threshold)
          return FtStatus::kUncorrectable;
      }
    }
    return corrected_any ? FtStatus::kCorrectedErrors : FtStatus::kOk;
  }

  template <MemTap Tap>
  void refresh_column_checksums(std::size_t j, Tap tap) {
    const std::size_t m = a_.rows();
    double s = 0.0, w = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      tap.read(&buf_.cf(i, j));
      s += buf_.cf(i, j);
      w += static_cast<double>(i + 1) * buf_.cf(i, j);
    }
    tap.write(&buf_.cf(m, j));
    tap.write(&buf_.cf(m + 1, j));
    buf_.cf(m, j) = s;
    buf_.cf(m + 1, j) = w;
  }

  template <MemTap Tap>
  void refresh_row_checksums(std::size_t i, Tap tap) {
    const std::size_t n = b_.cols();
    double s = 0.0, w = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      tap.read(&buf_.cf(i, j));
      s += buf_.cf(i, j);
      w += static_cast<double>(j + 1) * buf_.cf(i, j);
    }
    tap.write(&buf_.cf(i, n));
    tap.write(&buf_.cf(i, n + 1));
    buf_.cf(i, n) = s;
    buf_.cf(i, n + 1) = w;
  }

  ConstMatrixView a_, b_;
  Buffers buf_;
  FtOptions opt_;
  Runtime* rt_;
  TickClock clock_;  ///< FtStats time source: the current backend's clock
  std::size_t struct_id_ = 0;
  double scale_ = 1.0;
  FtStats stats_;
};

}  // namespace abftecc::abft

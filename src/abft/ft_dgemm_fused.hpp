// Fused FT-DGEMM: checksum maintenance and periodic verification woven into
// the blocked native GEMM instead of run as separate passes (the FT-GEMM
// design, arXiv 2305.02444 — see PAPERS.md).
//
// The classic FtDgemm encodes A and B into enlarged checksum copies and
// re-walks the whole product between k-blocks; at native speed those extra
// passes and the memory they drag through cache dominate. Here the payload
// matrices stay untouched and the checksum state is two side vectors,
//     cc[j] = expected column sums (e^T C),   cr[i] = expected row sums (C e),
// maintained group by group from the *inputs* (cc += (e^T A_group) B_group,
// taken for every group in the encode's one walk over B; cr += A_group
// (B_group e) at each group's close) — O((m+n)·k) extra FLOPs against the
// product's O(m·n·k). Verification is fused into the tile sweep: right after
// a verify group's last k-panel updates a C column block, while that block
// is still cache-hot, one read pass both checks the block's column sums and
// accumulates actual row sums; the row check closes at the group boundary.
// A single corrupted element shows up as a matching column/row residual pair
// and is repaired in place, exactly like the classic kernel's Case C.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <vector>

#include "abft/common.hpp"
#include "common/backend.hpp"
#include "common/error.hpp"
#include "common/matrix.hpp"
#include "linalg/gemm_native.hpp"

namespace abftecc::abft {

struct FusedOptions {
  /// k-panels per verify group ("every few iterations", Section 2.1).
  std::size_t verify_period = 4;
  /// Relative tolerance for checksum residual tests.
  double tolerance = 1e-8;
  /// k-panel depth fed to the native GEMM per tile pass. Equal to the
  /// packed kernel's kc block, so each call accumulates its whole depth in
  /// registers and reads and writes its C block once.
  std::size_t panel = 256;
  /// C column-block width of the fused compute+verify sweep. Equal to the
  /// packed kernel's nc block: each sliced call packs its B block once and
  /// re-packs the A panel once per block, as the plain call does. Measured
  /// with the packed kernel (median fused/plain - 1 over interleaved reps
  /// on a 4-core AVX2 Xeon, n = 1024 / 2048): 128 -> 17% / 21%,
  /// 256 -> 6% / 11%, 512 -> 6% / 7%, 1024 -> 10% / 7%, 2048 -> 10% / 8%.
  /// Narrower blocks re-pack A more often; wider ones leave the C block
  /// colder for the verify read.
  std::size_t jblock = 512;
};

class FtDgemmFused {
 public:
  using Options = FusedOptions;

  /// Computes c <- a * b. `c` must be exactly a.rows() x b.cols(); no
  /// checksum-enlarged buffers exist in this kernel.
  FtDgemmFused(ConstMatrixView a, ConstMatrixView b, MatrixView c,
               Options opt = {})
      : a_(a), b_(b), c_(c), opt_(opt) {
    ABFTECC_REQUIRE(a.cols() == b.rows());
    ABFTECC_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols());
    ABFTECC_REQUIRE(opt_.verify_period > 0 && opt_.panel > 0 &&
                    opt_.jblock > 0);
  }

  /// Test hook: called after the verify group's panel updates have been
  /// applied to the C block starting at column `j0`, immediately *before*
  /// the fused verification of that block — i.e. between verify periods.
  /// Fault-injection tests flip a payload element here.
  void set_fault_hook(std::function<void(std::size_t group, std::size_t j0)> f) {
    fault_hook_ = std::move(f);
  }

  template <MemBackend B>
  FtStatus run(B& be) {
    clock_ = be.clock();
    const std::size_t m = a_.rows(), n = b_.cols(), kk = a_.cols();
    const std::size_t group_k = opt_.verify_period * opt_.panel;
    const std::size_t groups = (kk + group_k - 1) / group_k;

    // --- encode: side checksum vectors, maintained from the inputs -------
    std::vector<double> sa(kk), rb(kk, 0.0);  // e^T A  and  B e
    // cc[g * n + j]: expected sum of C column j once verify group g is done.
    std::vector<double> cc(groups * n), cr(m, 0.0), racc(m, 0.0);
    {
      PhaseTimer t(stats_.encode_seconds, clock_);
      touch_matrix(be, a_, MemOp::kRead);
      touch_matrix(be, b_, MemOp::kRead);
      // Both inputs are walked column by column, at unit stride: sa[k] is
      // a column sum of A, B's row sums rb[] are accumulated one B column
      // at a time, and each B column yields its expected C column sums
      // while it is still in L1.
      double asum = 0.0, bsum = 0.0;
      for (std::size_t k = 0; k < kk; ++k) {
        const double* col = &a_(0, k);
        sa[k] = sum(col, m);
        asum += abs_sum(col, m);
      }
      for (std::size_t j = 0; j < n; ++j) {
        const double* col = &b_(0, j);
        for (std::size_t k = 0; k < kk; ++k) rb[k] += col[k];
        bsum += abs_sum(col, kk);
        double s = 0.0;
        for (std::size_t g = 0, kg = 0; g < groups; ++g, kg += group_k) {
          s += dot(&sa[kg], col + kg, std::min(group_k, kk - kg));
          cc[g * n + j] = s;
        }
      }
      scale_ = (asum / static_cast<double>(m * kk)) *
               (bsum / static_cast<double>(n * kk)) * static_cast<double>(kk);
      if (scale_ == 0.0) scale_ = 1.0;
      if (kk == 0) c_.fill(0.0);  // otherwise the first panel overwrites C
    }
    const double threshold =
        opt_.tolerance * scale_ * std::sqrt(static_cast<double>(m));

    // --- fused compute + verify sweep ------------------------------------
    std::size_t group = 0;
    for (std::size_t kg = 0; kg < kk; kg += group_k, ++group) {
      const std::size_t glen = std::min(group_k, kk - kg);
      bad_cols_.clear();
      colres_.clear();
      std::fill(racc.begin(), racc.end(), 0.0);

      for (std::size_t j0 = 0; j0 < n; j0 += opt_.jblock) {
        const std::size_t jb = std::min(opt_.jblock, n - j0);
        MatrixView cblk = c_.block(0, j0, m, jb);
        // All of the group's k-panels hit this block back to back, so the
        // block stays resident for the verification read that follows.
        for (std::size_t k0 = kg; k0 < kg + glen; k0 += opt_.panel) {
          const std::size_t klen = std::min(opt_.panel, kg + glen - k0);
          linalg::gemm_native(
              1.0, ConstMatrixView(a_).block(0, k0, m, klen),
              ConstMatrixView(b_).block(k0, j0, klen, jb), k0 == 0 ? 0.0 : 1.0,
              cblk);
        }
        touch_block(be, cblk, MemOp::kUpdate);
        if (fault_hook_) fault_hook_(group, j0);
        // Fused verification: one read pass over the still-hot block checks
        // its column sums and accumulates the actual row sums.
        PhaseTimer t(stats_.verify_seconds, clock_);
        for (std::size_t j = 0; j < jb; ++j) {
          const double* col = &cblk(0, j);
          for (std::size_t i = 0; i < m; ++i) racc[i] += col[i];
          const double res = sum(col, m) - cc[group * n + j0 + j];
          if (std::abs(res) > threshold) {
            bad_cols_.push_back(j0 + j);
            colres_.push_back(res);
          }
        }
      }
      {
        // Expected row sums for the group, from the inputs.
        PhaseTimer t(stats_.encode_seconds, clock_);
        for (std::size_t k = kg; k < kg + glen; ++k) {
          const double w = rb[k];
          for (std::size_t i = 0; i < m; ++i) cr[i] += a_(i, k) * w;
        }
      }
      ++stats_.verifications;
      const FtStatus st = close_group(cr, racc, threshold, be);
      if (st == FtStatus::kUncorrectable) return st;
    }
    return stats_.errors_corrected > 0 ? FtStatus::kCorrectedErrors
                                       : FtStatus::kOk;
  }

  [[nodiscard]] ConstMatrixView result() const { return ConstMatrixView(c_); }
  [[nodiscard]] const FtStats& stats() const { return stats_; }

 private:
  /// Reductions over one contiguous column. Each keeps kLanes independent
  /// partial sums, so the loop runs at load/SIMD throughput instead of
  /// waiting out one add latency per element.
  static constexpr std::size_t kLanes = 8;
  template <typename Term>
  static double reduce(std::size_t len, Term term) {
    double part[kLanes] = {};
    std::size_t i = 0;
    for (; i + kLanes <= len; i += kLanes)
      for (std::size_t l = 0; l < kLanes; ++l) part[l] += term(i + l);
    for (; i < len; ++i) part[0] += term(i);
    for (std::size_t w = kLanes / 2; w > 0; w /= 2)
      for (std::size_t l = 0; l < w; ++l) part[l] += part[l + w];
    return part[0];
  }
  static double sum(const double* x, std::size_t len) {
    return reduce(len, [x](std::size_t i) { return x[i]; });
  }
  static double abs_sum(const double* x, std::size_t len) {
    return reduce(len, [x](std::size_t i) { return std::abs(x[i]); });
  }
  static double dot(const double* x, const double* y, std::size_t len) {
    return reduce(len, [x, y](std::size_t i) { return x[i] * y[i]; });
  }

  /// Bulk-announce a (possibly strided) matrix view to the backend.
  template <MemBackend B>
  static void touch_matrix(B& be, ConstMatrixView v, MemOp op) {
    if (v.ld() == v.rows()) {
      be.touch(v.data(), v.rows() * v.cols() * sizeof(double), op);
    } else {
      for (std::size_t j = 0; j < v.cols(); ++j)
        be.touch(&v(0, j), v.rows() * sizeof(double), op);
    }
  }
  template <MemBackend B>
  static void touch_block(B& be, MatrixView v, MemOp op) {
    touch_matrix(be, ConstMatrixView(v), op);
  }

  /// Close the verify group: row residuals, then pair row/column residuals
  /// and repair single errors in place (classic FtDgemm Case C, against the
  /// side vectors instead of an embedded checksum row/column).
  template <MemBackend B>
  FtStatus close_group(const std::vector<double>& cr,
                       const std::vector<double>& racc, double threshold,
                       B& be) {
    const std::size_t m = a_.rows();
    std::vector<std::size_t> bad_rows;
    std::vector<double> rowres;
    for (std::size_t i = 0; i < m; ++i) {
      const double res = racc[i] - cr[i];
      if (std::abs(res) > threshold) {
        bad_rows.push_back(i);
        rowres.push_back(res);
      }
    }
    if (bad_rows.empty() && bad_cols_.empty()) return FtStatus::kOk;
    PhaseTimer t(stats_.correct_seconds, clock_);
    stats_.errors_detected += std::max(bad_rows.size(), bad_cols_.size());
    if (bad_rows.size() != bad_cols_.size()) return FtStatus::kUncorrectable;
    // Pair each bad column with the unique bad row of matching residual.
    std::vector<bool> used(bad_rows.size(), false);
    for (std::size_t cidx = 0; cidx < bad_cols_.size(); ++cidx) {
      std::size_t match = bad_rows.size();
      for (std::size_t r = 0; r < bad_rows.size(); ++r) {
        if (used[r]) continue;
        if (std::abs(rowres[r] - colres_[cidx]) <= threshold) {
          if (match != bad_rows.size()) return FtStatus::kUncorrectable;
          match = r;
        }
      }
      if (match == bad_rows.size()) return FtStatus::kUncorrectable;
      used[match] = true;
      double& cell = c_(bad_rows[match], bad_cols_[cidx]);
      be.touch(&cell, sizeof(double), MemOp::kUpdate);
      cell -= colres_[cidx];
      ++stats_.errors_corrected;
    }
    return FtStatus::kCorrectedErrors;
  }

  ConstMatrixView a_, b_;
  MatrixView c_;
  Options opt_;
  double scale_ = 1.0;
  FtStats stats_;
  TickClock clock_;
  std::vector<std::size_t> bad_cols_;
  std::vector<double> colres_;
  std::function<void(std::size_t, std::size_t)> fault_hook_;
};

}  // namespace abftecc::abft

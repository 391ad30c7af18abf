// FT-DGEMM: fault-tolerant general matrix multiplication for fail-continue
// errors (Section 2.1, after Wu et al.).
//
// A and B are encoded with checksums,
//     A^c = [A; e^T A]          (extra column-checksum row)
//     B^r = [B, B e]            (extra row-checksum column)
// so the running product C^f = A^c B^r carries a full checksum relationship
// at every k-block boundary: each column of C sums to the checksum row and
// each row sums to the checksum column. Verification recomputes the sums
// every `verify_period` k-blocks; a corrupted element (i,j) shows up as
// matching row-i and column-j residuals and is repaired in place. In
// cooperative (hardware-assisted) mode the verification pass is replaced by
// a check of the OS-exposed error log (Section 3.2.2): when the hardware
// saw no error, no checksum is recomputed at all.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "abft/checksum.hpp"
#include "abft/common.hpp"
#include "abft/runtime.hpp"
#include "linalg/blas.hpp"
#include "obs/lineage.hpp"
#include "recovery/manager.hpp"

namespace abftecc::abft {

class FtDgemm {
 public:
  /// Caller-provided (typically malloc_ecc-backed) buffers.
  struct Buffers {
    MatrixView ac;  ///< (m+1) x k
    MatrixView br;  ///< k x (n+1)
    MatrixView cf;  ///< (m+1) x (n+1), zeroed by encode()
  };

  FtDgemm(ConstMatrixView a, ConstMatrixView b, Buffers buf,
          FtOptions opt = {}, Runtime* runtime = nullptr)
      : a_(a), b_(b), buf_(buf), opt_(opt), rt_(runtime) {
    ABFTECC_REQUIRE(a.cols() == b.rows());
    ABFTECC_REQUIRE(buf.ac.rows() == a.rows() + 1 && buf.ac.cols() == a.cols());
    ABFTECC_REQUIRE(buf.br.rows() == b.rows() && buf.br.cols() == b.cols() + 1);
    ABFTECC_REQUIRE(buf.cf.rows() == a.rows() + 1 &&
                    buf.cf.cols() == b.cols() + 1);
    if (rt_ != nullptr)
      struct_id_ = rt_->register_structure("ft_dgemm.C", buf_.cf.data(),
                                           buf_.cf.ld() * buf_.cf.cols());
  }

  ~FtDgemm() {
    if (rt_ != nullptr) rt_->unregister_structure(struct_id_);
  }
  FtDgemm(const FtDgemm&) = delete;
  FtDgemm& operator=(const FtDgemm&) = delete;

  /// Full run through a memory backend (common/backend.hpp): encode,
  /// multiply with periodic verification, final verify. The tap and the
  /// FtStats time source both come from the backend -- simulated cycles
  /// under SimBackend, steady_clock under NativeBackend.
  /// With a RecoveryManager attached to the runtime the kernel walks the
  /// escalation ladder instead of surfacing kUncorrectable: per-block
  /// recompute from the plain inputs, then rollback to the last verified
  /// checkpoint (the ac/br/cf buffers are tracked for the duration of the
  /// run and committed after every clean verification), then
  /// kUnrecoverable.
  template <MemBackend B>
  FtStatus run(B& be) {
    clock_ = be.clock();
    auto tap = be.tap();
    recovery::RecoveryManager* rm =
        rt_ != nullptr ? rt_->recovery() : nullptr;
    TrackedBuffers tracked;
    if (rm != nullptr) {
      rm->begin_run();
      tracked.attach(rm->store(), buf_);
    }
    encode(tap);
    if (rm != nullptr) {
      // A fault that hit the plain inputs during encode is invisible to the
      // product checksums but poisons every block. The OS escalation hook
      // raises the demand flag; restore the pristine input checkpoint the
      // caller committed before construction, then re-encode.
      if (rm->rollback_demanded()) {
        if (!rm->try_rollback() ||
            rm->rollback() != recovery::RestoreResult::kOk)
          return fail_unrecoverable(rm);
        encode(tap);
      }
      // Epoch 0: encoded-but-unmultiplied state, now covering ac/br/cf too.
      rm->commit(0);
    }
    const std::size_t kk = a_.cols();
    const std::size_t kb = linalg::kBlock;
    kdone_ = 0;
    std::size_t blocks_since_verify = 0;
    while (kdone_ < kk) {
      const std::size_t klen = std::min(kb, kk - kdone_);
      linalg::gemm(
          1.0, ConstMatrixView(buf_.ac.block(0, kdone_, buf_.ac.rows(), klen)),
          ConstMatrixView(buf_.br.block(kdone_, 0, klen, buf_.br.cols())), 1.0,
          buf_.cf, tap);
      kdone_ += klen;
      if (++blocks_since_verify >= opt_.verify_period || kdone_ == kk) {
        blocks_since_verify = 0;
        const FtStatus st = checked_verify(rm, be);
        if (st == FtStatus::kUncorrectable || st == FtStatus::kUnrecoverable)
          return st;
      }
    }
    return stats_.errors_corrected > 0 ? FtStatus::kCorrectedErrors
                                       : FtStatus::kOk;
  }

  /// One verification pass. In hardware-assisted mode this only consults
  /// the exposed error log unless a notification is pending.
  template <MemBackend B>
  FtStatus verify_and_correct(B& be) {
    clock_ = be.clock();
    auto tap = be.tap();
    ++stats_.verifications;
    ScopedPhase phase(rt_, obs::EventKind::kVerify, "ft_dgemm.verify");
    if (opt_.hardware_assisted && rt_ != nullptr &&
        rt_->hardware_assisted_available()) {
      PhaseTimer t(stats_.verify_seconds, clock_);
      if (!rt_->errors_pending()) return FtStatus::kOk;
      return correct_from_notifications(tap);
    }
    PhaseTimer t(stats_.verify_seconds, clock_);
    return full_verify(tap);
  }

  /// The m x n payload block of the running product.
  [[nodiscard]] ConstMatrixView result() const {
    return ConstMatrixView(buf_.cf).block(0, 0, a_.rows(), b_.cols());
  }

  [[nodiscard]] const FtStats& stats() const { return stats_; }
  [[nodiscard]] const Buffers& buffers() const { return buf_; }

 private:
  /// RAII registration of the kernel buffers in the checkpoint store for
  /// the duration of one run().
  struct TrackedBuffers {
    recovery::CheckpointStore* store = nullptr;
    recovery::CheckpointStore::RangeId ids[3] = {};

    void attach(recovery::CheckpointStore& s, Buffers& b) {
      store = &s;
      ids[0] = s.track("ft_dgemm.ac", b.ac.data(),
                       b.ac.ld() * b.ac.cols() * sizeof(double));
      ids[1] = s.track("ft_dgemm.br", b.br.data(),
                       b.br.ld() * b.br.cols() * sizeof(double));
      ids[2] = s.track("ft_dgemm.cf", b.cf.data(),
                       b.cf.ld() * b.cf.cols() * sizeof(double));
    }
    ~TrackedBuffers() {
      if (store == nullptr) return;
      for (const auto id : ids) store->untrack(id);
    }
    TrackedBuffers() = default;
    TrackedBuffers(const TrackedBuffers&) = delete;
    TrackedBuffers& operator=(const TrackedBuffers&) = delete;
  };

  /// One ladder episode around a verification point. Loops until the state
  /// verifies clean or a tier budget runs out; every iteration either
  /// terminates or consumes recompute/rollback budget, so it is bounded.
  template <MemBackend B>
  FtStatus checked_verify(recovery::RecoveryManager* rm, B& be) {
    bool recompute_pending = false;
    for (;;) {
      const FtStatus st = verify_and_correct(be);
      if (rm == nullptr) return st;
      // An OS-demanded rollback overrides a clean checksum verdict: the
      // corruption sits outside ABFT's checksum space (tier 3 directly).
      if (rm->rollback_demanded()) {
        if (!attempt_rollback(rm)) return fail_unrecoverable(rm);
        recompute_pending = false;
        continue;
      }
      if (st != FtStatus::kUncorrectable) {
        if (recompute_pending) rm->recompute_succeeded();
        if (st == FtStatus::kOk || st == FtStatus::kCorrectedErrors)
          rm->checkpoint_tick(kdone_);
        return st;
      }
      // tier 2: regenerate the implicated rows/columns from the inputs.
      if (rm->try_recompute()) {
        recompute_from_inputs(be.tap());
        recompute_pending = true;
        continue;
      }
      // tier 3: rewind to the last verified checkpoint.
      if (attempt_rollback(rm)) {
        recompute_pending = false;
        continue;
      }
      return fail_unrecoverable(rm);  // tier 4
    }
  }

  /// Verified restore; on success rewinds the k-progress to the restored
  /// epoch so run() resumes from there.
  bool attempt_rollback(recovery::RecoveryManager* rm) {
    if (!rm->try_rollback()) return false;
    if (rm->rollback() != recovery::RestoreResult::kOk) return false;
    kdone_ = static_cast<std::size_t>(rm->store().epoch());
    return true;
  }

  FtStatus fail_unrecoverable(recovery::RecoveryManager* rm) {
    rm->mark_unrecoverable();
    return FtStatus::kUnrecoverable;
  }

  /// Lineage: record an abft_corrected stage on the fault(s) whose line
  /// holds the element just repaired. `residual` (the checksum delta the
  /// correction removed) travels as its raw IEEE-754 bits in a0.
  void note_correction(const void* element, double residual) {
    auto& lineage = obs::default_lineage();
    if (!lineage.enabled() || rt_ == nullptr || rt_->os() == nullptr) return;
    const auto phys = rt_->os()->virt_to_phys(element);
    if (!phys.has_value()) return;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &residual, sizeof(bits));
    lineage.line_event(*phys, obs::LineageStage::kAbftCorrected,
                       rt_->os()->system().stats().cpu_cycles, bits, 0,
                       "FT-DGEMM");
  }

  /// Tier 2: recompute every payload element of the rows/columns the last
  /// failed verification implicated, straight from the plain inputs
  /// (c(i,j) = sum_{k<kdone_} a(i,k) b(k,j)), then refresh the checksum
  /// entries those rows/columns feed. Heals corruption in ac/br as well:
  /// the recomputed values bypass the encoded copies entirely.
  template <MemTap Tap>
  void recompute_from_inputs(Tap tap) {
    PhaseTimer t(stats_.correct_seconds, clock_);
    ScopedPhase phase(rt_, obs::EventKind::kRecover, "ft_dgemm.recompute",
                      obs::Phase::kRecompute);
    const std::size_t m = a_.rows(), n = b_.cols();
    std::vector<char> row_done(m, 0);
    for (const std::size_t i : last_bad_rows_) {
      row_done[i] = 1;
      for (std::size_t j = 0; j < n; ++j) recompute_cell(i, j, tap);
      refresh_checksum_entry(i, n, tap);
    }
    for (const std::size_t j : last_bad_cols_) {
      for (std::size_t i = 0; i < m; ++i)
        if (row_done[i] == 0) recompute_cell(i, j, tap);
      refresh_checksum_entry(m, j, tap);
    }
    // Column sums changed wherever a bad row crossed a clean column.
    for (const std::size_t i : last_bad_rows_) {
      (void)i;
      for (std::size_t j = 0; j < n; ++j) refresh_checksum_entry(m, j, tap);
      break;  // one full refresh covers every column
    }
  }

  template <MemTap Tap>
  void recompute_cell(std::size_t i, std::size_t j, Tap tap) {
    double s = 0.0;
    for (std::size_t k = 0; k < kdone_; ++k) {
      tap.read(&a_(i, k));
      tap.read(&b_(k, j));
      s += a_(i, k) * b_(k, j);
    }
    tap.write(&buf_.cf(i, j));
    buf_.cf(i, j) = s;
  }

  template <MemTap Tap>
  void encode(Tap tap) {
    PhaseTimer t(stats_.encode_seconds, clock_);
    ScopedPhase phase(rt_, obs::EventKind::kEncode, "ft_dgemm.encode");
    const std::size_t m = a_.rows(), n = b_.cols(), kk = a_.cols();
    // A^c: copy A and append the column-sum row.
    for (std::size_t j = 0; j < kk; ++j) {
      double s = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        tap.read(&a_(i, j));
        tap.write(&buf_.ac(i, j));
        buf_.ac(i, j) = a_(i, j);
        s += a_(i, j);
      }
      tap.write(&buf_.ac(m, j));
      buf_.ac(m, j) = s;
    }
    // B^r: copy B and append the row-sum column.
    for (std::size_t i = 0; i < kk; ++i) {
      tap.write(&buf_.br(i, n));
      buf_.br(i, n) = 0.0;
    }
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < kk; ++i) {
        tap.read(&b_(i, j));
        tap.write(&buf_.br(i, j));
        buf_.br(i, j) = b_(i, j);
        tap.update(&buf_.br(i, n));
        buf_.br(i, n) += b_(i, j);
      }
    }
    buf_.cf.fill(0.0);
    scale_ = mean_abs(a_) * mean_abs(b_) * static_cast<double>(kk);
    if (scale_ == 0.0) scale_ = 1.0;
  }

  /// Repair elements named by the OS error log using one column scan each.
  template <MemTap Tap>
  FtStatus correct_from_notifications(Tap tap) {
    ScopedPhase phase(rt_, obs::EventKind::kRecover, "ft_dgemm.recover");
    const std::size_t m = a_.rows(), n = b_.cols();
    for (const auto& e : rt_->drain_located_errors()) {
      if (e.structure_id != struct_id_) continue;
      ++stats_.hw_notifications_used;
      ++stats_.errors_detected;
      const std::size_t i = e.element_index % buf_.cf.ld();
      const std::size_t j = e.element_index / buf_.cf.ld();
      if (i > m || j > n) continue;
      PhaseTimer t(stats_.correct_seconds, clock_);
      if (i == m || j == n) {
        // Corrupted checksum entry: recompute it from the payload.
        refresh_checksum_entry(i, j, tap);
        ++stats_.errors_corrected;
        note_correction(&buf_.cf(i, j), 0.0);
        continue;
      }
      double s = 0.0;
      for (std::size_t r = 0; r < m; ++r) {
        tap.read(&buf_.cf(r, j));
        s += buf_.cf(r, j);
      }
      tap.read(&buf_.cf(m, j));
      const double delta = s - buf_.cf(m, j);
      tap.update(&buf_.cf(i, j));
      buf_.cf(i, j) -= delta;
      ++stats_.errors_corrected;
      note_correction(&buf_.cf(i, j), delta);
    }
    return FtStatus::kOk;
  }

  template <MemTap Tap>
  void refresh_checksum_entry(std::size_t i, std::size_t j, Tap tap) {
    const std::size_t m = a_.rows(), n = b_.cols();
    if (i == m && j == n) {
      double s = 0.0;
      for (std::size_t r = 0; r < m; ++r) {
        tap.read(&buf_.cf(r, n));
        s += buf_.cf(r, n);
      }
      tap.write(&buf_.cf(m, n));
      buf_.cf(m, n) = s;
    } else if (i == m) {
      double s = 0.0;
      for (std::size_t r = 0; r < m; ++r) {
        tap.read(&buf_.cf(r, j));
        s += buf_.cf(r, j);
      }
      tap.write(&buf_.cf(m, j));
      buf_.cf(m, j) = s;
    } else {
      double s = 0.0;
      for (std::size_t c = 0; c < n; ++c) {
        tap.read(&buf_.cf(i, c));
        s += buf_.cf(i, c);
      }
      tap.write(&buf_.cf(i, n));
      buf_.cf(i, n) = s;
    }
  }

  /// Full checksum verification and correction over C^f.
  template <MemTap Tap>
  FtStatus full_verify(Tap tap) {
    const std::size_t m = a_.rows(), n = b_.cols();
    const double threshold =
        opt_.tolerance * scale_ * std::sqrt(static_cast<double>(m));

    std::vector<double> colres(n, 0.0), rowres(m, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        tap.read(&buf_.cf(i, j));
        s += buf_.cf(i, j);
      }
      tap.read(&buf_.cf(m, j));
      colres[j] = s - buf_.cf(m, j);
    }
    for (std::size_t i = 0; i < m; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        tap.read(&buf_.cf(i, j));
        s += buf_.cf(i, j);
      }
      tap.read(&buf_.cf(i, n));
      rowres[i] = s - buf_.cf(i, n);
    }

    std::vector<std::size_t> bad_cols, bad_rows;
    for (std::size_t j = 0; j < n; ++j)
      if (std::abs(colres[j]) > threshold) bad_cols.push_back(j);
    for (std::size_t i = 0; i < m; ++i)
      if (std::abs(rowres[i]) > threshold) bad_rows.push_back(i);
    // Remember the implicated coordinates: a kUncorrectable verdict hands
    // them to the tier-2 recompute.
    last_bad_rows_ = bad_rows;
    last_bad_cols_ = bad_cols;
    if (bad_cols.empty() && bad_rows.empty()) return FtStatus::kOk;

    PhaseTimer t(stats_.correct_seconds, clock_);
    ScopedPhase recover(rt_, obs::EventKind::kRecover, "ft_dgemm.recover");
    stats_.errors_detected += std::max(bad_cols.size(), bad_rows.size());

    // Case A: one bad row, k bad columns -> all errors in that row.
    if (bad_rows.size() == 1 && !bad_cols.empty()) {
      const std::size_t i = bad_rows.front();
      for (const std::size_t j : bad_cols) {
        tap.update(&buf_.cf(i, j));
        buf_.cf(i, j) -= colres[j];
        ++stats_.errors_corrected;
        note_correction(&buf_.cf(i, j), colres[j]);
      }
      return FtStatus::kCorrectedErrors;
    }
    // Case B: one bad column, k bad rows -> all errors in that column.
    if (bad_cols.size() == 1 && !bad_rows.empty()) {
      const std::size_t j = bad_cols.front();
      for (const std::size_t i : bad_rows) {
        tap.update(&buf_.cf(i, j));
        buf_.cf(i, j) -= rowres[i];
        ++stats_.errors_corrected;
        note_correction(&buf_.cf(i, j), rowres[i]);
      }
      return FtStatus::kCorrectedErrors;
    }
    // Case C: residual magnitudes pair rows with columns uniquely.
    if (bad_rows.size() == bad_cols.size() && !bad_rows.empty()) {
      std::vector<bool> used(bad_rows.size(), false);
      for (const std::size_t j : bad_cols) {
        std::size_t match = bad_rows.size();
        for (std::size_t r = 0; r < bad_rows.size(); ++r) {
          if (used[r]) continue;
          if (std::abs(rowres[bad_rows[r]] - colres[j]) <= threshold) {
            if (match != bad_rows.size()) return FtStatus::kUncorrectable;
            match = r;
          }
        }
        if (match == bad_rows.size()) return FtStatus::kUncorrectable;
        used[match] = true;
        tap.update(&buf_.cf(bad_rows[match], j));
        buf_.cf(bad_rows[match], j) -= colres[j];
        ++stats_.errors_corrected;
        note_correction(&buf_.cf(bad_rows[match], j), colres[j]);
      }
      return FtStatus::kCorrectedErrors;
    }
    // Case D: a bad column with no bad row (or vice versa) means the
    // checksum entry itself is corrupted; refresh it.
    if (bad_rows.empty()) {
      for (const std::size_t j : bad_cols) {
        refresh_checksum_entry(m, j, tap);
        ++stats_.errors_corrected;
        note_correction(&buf_.cf(m, j), colres[j]);
      }
      return FtStatus::kCorrectedErrors;
    }
    if (bad_cols.empty()) {
      for (const std::size_t i : bad_rows) {
        refresh_checksum_entry(i, n, tap);
        ++stats_.errors_corrected;
        note_correction(&buf_.cf(i, n), rowres[i]);
      }
      return FtStatus::kCorrectedErrors;
    }
    return FtStatus::kUncorrectable;
  }

  ConstMatrixView a_, b_;
  Buffers buf_;
  FtOptions opt_;
  Runtime* rt_;
  TickClock clock_;  ///< FtStats time source: the current backend's clock
  std::size_t struct_id_ = 0;
  double scale_ = 1.0;
  FtStats stats_;
  std::size_t kdone_ = 0;  ///< k columns accumulated into cf so far
  std::vector<std::size_t> last_bad_rows_, last_bad_cols_;
};

}  // namespace abftecc::abft

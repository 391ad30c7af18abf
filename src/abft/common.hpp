// Shared types for the ABFT kernels: status codes, phase timing (the
// checksum-vs-verification breakdown of Figure 3), and options.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/backend.hpp"

namespace abftecc::abft {

enum class FtStatus {
  kOk,                ///< finished; all detected errors corrected
  kCorrectedErrors,   ///< finished; >= 1 error was detected and corrected
  kUncorrectable,     ///< error pattern beyond ABFT capability: caller must
                      ///< fall back to checkpoint/restart
  kNumericalFailure,  ///< substrate breakdown (non-SPD, singular, divergence)
  kUnrecoverable,     ///< the whole recovery ladder (recompute + rollback)
                      ///< was exhausted; result must not be trusted
};

constexpr std::string_view to_string(FtStatus s) {
  switch (s) {
    case FtStatus::kOk: return "ok";
    case FtStatus::kCorrectedErrors: return "corrected_errors";
    case FtStatus::kUncorrectable: return "uncorrectable";
    case FtStatus::kNumericalFailure: return "numerical_failure";
    case FtStatus::kUnrecoverable: return "unrecoverable";
  }
  return "?";
}

/// Accumulated per-run ABFT accounting. Wall-clock phase timers feed the
/// Figure 3 overhead breakdown and the Table 1 simplified-verification
/// comparison; counters feed the error-handling experiments.
struct FtStats {
  double encode_seconds = 0.0;   ///< building + maintaining checksums
  double verify_seconds = 0.0;   ///< periodic verification passes
  double correct_seconds = 0.0;  ///< error correction work
  std::uint64_t verifications = 0;
  std::uint64_t errors_detected = 0;
  std::uint64_t errors_corrected = 0;
  std::uint64_t hw_notifications_used = 0;  ///< simplified-verification hits

  friend bool operator==(const FtStats&, const FtStats&) = default;

  [[nodiscard]] double overhead_seconds() const {
    return encode_seconds + verify_seconds + correct_seconds;
  }
};

/// Scoped phase timer accumulating into an FtStats field. Reads the
/// backend's native time source (common/backend.hpp): simulated cycles in
/// simulated mode -- deterministic, immune to host scheduling noise -- and
/// host steady_clock in native mode. The clock has no default, so every
/// timer names the backend's.
class PhaseTimer {
 public:
  PhaseTimer(double& sink, TickClock clock)
      : sink_(sink), clock_(clock), start_(clock_.now()) {}
  ~PhaseTimer() { sink_ += clock_.seconds_since(start_); }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double& sink_;
  TickClock clock_;
  std::uint64_t start_;
};

/// Options common to the fail-continue kernels.
struct FtOptions {
  /// Verify every this many block iterations ("every few iterations of the
  /// computation", Section 2.1).
  std::size_t verify_period = 4;
  /// Use the cooperative hardware error-notification path instead of full
  /// checksum recomputation when no notification is pending (Section 3.2.2).
  bool hardware_assisted = false;
  /// Relative tolerance for checksum residual tests.
  double tolerance = 1e-8;
};

}  // namespace abftecc::abft

// Shared types of the recovery escalation ladder (DESIGN.md "Recovery
// escalation ladder"): options, accounting, the final per-run verdict, and
// the Fletcher-style checksum that guards checkpoint snapshots.
//
// This header is dependency-free so sim::PlatformOptions and
// campaign::TrialOutcome can embed the types without pulling the OS layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace abftecc::recovery {

/// How a run that needed more than plain ABFT correction ended.
enum class RecoveryVerdict : std::uint8_t {
  kNotNeeded,             ///< tier 1 (ABFT element correction) sufficed
  kRecoveredByRecompute,  ///< tier 2: a block was regenerated from inputs
  kRecoveredByRollback,   ///< tier 3: restored from a verified checkpoint
  kUnrecoverable,         ///< tier 4: ladder exhausted; result not trusted
};

constexpr std::string_view to_string(RecoveryVerdict v) {
  switch (v) {
    case RecoveryVerdict::kNotNeeded: return "not_needed";
    case RecoveryVerdict::kRecoveredByRecompute:
      return "recovered_by_recompute";
    case RecoveryVerdict::kRecoveredByRollback:
      return "recovered_by_rollback";
    case RecoveryVerdict::kUnrecoverable: return "unrecoverable";
  }
  return "?";
}

/// Ladder configuration. Attempt bounds are per kernel run: recompute
/// attempts reset after each successfully recovered episode (progress was
/// made), rollback attempts never do (a rollback revisits old work, so an
/// unbounded fault keeps the run from terminating otherwise).
struct RecoveryOptions {
  bool enable_recompute = true;
  unsigned max_recompute_attempts = 2;
  bool enable_rollback = true;
  unsigned max_rollback_attempts = 2;
  /// Commit a checkpoint every this many clean verification passes.
  std::size_t checkpoint_period = 1;
};

/// Cumulative ladder accounting for one simulated node (all runs).
struct RecoveryStats {
  std::uint64_t recompute_attempts = 0;
  std::uint64_t recomputes = 0;  ///< attempts whose re-verification passed
  std::uint64_t rollback_attempts = 0;
  std::uint64_t rollbacks = 0;  ///< verified restores actually performed
  std::uint64_t checkpoints = 0;
  std::uint64_t corrupted_checkpoints = 0;  ///< checksum vetoed a restore
  /// Uncorrectable errors outside ABFT coverage absorbed by the ladder
  /// (each would have been an Os::panic without it).
  std::uint64_t escalations = 0;
  std::uint64_t unrecoverable = 0;

  friend bool operator==(const RecoveryStats&, const RecoveryStats&) = default;
};

/// Fletcher-64 over bytes (two running 32-bit sums, modulo 2^32 - 1).
/// Guards checkpoint snapshots: a corrupted snapshot must be detected
/// before it is restored, never after.
[[nodiscard]] inline std::uint64_t fletcher64(const std::byte* data,
                                              std::size_t n) {
  constexpr std::uint64_t kMod = 0xFFFFFFFFull;
  std::uint64_t s1 = 0, s2 = 0;
  std::size_t i = 0;
  while (i < n) {
    // Accumulate in blocks small enough that the 64-bit sums cannot wrap
    // before the modulo reduction.
    const std::size_t block = i + 5000 < n ? i + 5000 : n;
    for (; i < block; ++i) {
      s1 += std::to_integer<std::uint64_t>(data[i]) + 1;  // +1: length-aware
      s2 += s1;
    }
    s1 %= kMod;
    s2 %= kMod;
  }
  return (s2 << 32) | s1;
}

}  // namespace abftecc::recovery

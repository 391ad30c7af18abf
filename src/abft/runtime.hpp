// ABFT runtime: the software half of the cooperation (Section 3.2).
//
// The runtime records which application structures are ABFT-protected
// (their virtual address ranges, registered at allocation time), and turns
// the OS's exposed error log into (structure, element) coordinates for the
// kernels' simplified verification. Without an Os attached it degrades to
// pure software ABFT (the traditional, uncooperative deployment).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "os/os.hpp"

namespace abftecc::recovery {
class RecoveryManager;
}  // namespace abftecc::recovery

namespace abftecc::abft {

/// An error located to one element of a registered structure.
struct LocatedError {
  std::size_t structure_id = 0;
  std::string structure_name;
  std::size_t element_index = 0;  ///< index into the double array
};

class Runtime {
 public:
  /// `os` may be null: software-only ABFT with no hardware notification.
  explicit Runtime(os::Os* os = nullptr) : os_(os) {}

  [[nodiscard]] bool hardware_assisted_available() const {
    return os_ != nullptr;
  }

  /// Register a protected structure (called at the ABFT initial phase,
  /// after malloc_ecc). Returns the structure id.
  std::size_t register_structure(std::string name, const double* base,
                                 std::size_t elements);

  void unregister_structure(std::size_t id);

  /// Drain the OS error log and map each exposed virtual address onto a
  /// registered structure element. Errors outside registered structures
  /// are returned with structure_id == npos (the caller decides; in the
  /// full system the OS would already have panicked for those).
  std::vector<LocatedError> drain_located_errors();

  /// True if the OS currently has exposed errors pending (cheap check the
  /// kernels use to skip full verification, Section 3.2.2).
  [[nodiscard]] bool errors_pending() const {
    return os_ != nullptr && os_->has_exposed_errors();
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  [[nodiscard]] os::Os* os() { return os_; }

  /// Attach the recovery escalation ladder (tiers 2-4). Kernels consult
  /// recovery() when plain ABFT correction fails; null (the default) keeps
  /// the historical behavior of surfacing kUncorrectable immediately.
  void set_recovery(recovery::RecoveryManager* rm) { recovery_ = rm; }
  [[nodiscard]] recovery::RecoveryManager* recovery() { return recovery_; }

 private:
  struct Structure {
    std::string name;
    const double* base = nullptr;
    std::size_t elements = 0;
    bool live = false;
  };

  os::Os* os_;
  recovery::RecoveryManager* recovery_ = nullptr;
  std::vector<Structure> structures_;
};

/// Profiler phase a kernel trace marker attributes to by default.
[[nodiscard]] constexpr obs::Phase phase_of(obs::EventKind k) {
  switch (k) {
    case obs::EventKind::kEncode: return obs::Phase::kEncode;
    case obs::EventKind::kVerify: return obs::Phase::kVerify;
    case obs::EventKind::kRecover: return obs::Phase::kCorrect;
    default: return obs::Phase::kCompute;
  }
}

/// Scoped marker for a kernel phase (verify / recover / encode): emits one
/// Chrome complete event spanning the phase in simulated cycles, and
/// enters the matching profiler phase (phase_of(kind), overridable for
/// sites like recompute that trace as kRecover but attribute separately).
/// With no attached Os (pure-software ABFT) there is no cycle clock and the
/// trace phase is recorded at ts 0 with zero duration; with both the tracer
/// and the profiler disabled (the default) construction and destruction are
/// branch-only.
class ScopedPhase {
 public:
  ScopedPhase(Runtime* rt, obs::EventKind kind, const char* tag)
      : ScopedPhase(rt, kind, tag, phase_of(kind)) {}

  ScopedPhase(Runtime* rt, obs::EventKind kind, const char* tag,
              obs::Phase phase)
      : rt_(rt),
        kind_(kind),
        tag_(tag),
        start_(obs::default_tracer().enabled() ? now() : 0),
        profiled_(phase) {}
  ~ScopedPhase() {
    auto& tracer = obs::default_tracer();
    if (!tracer.enabled()) return;
    const std::uint64_t end = now();
    tracer.complete(kind_, tag_, start_, end - start_);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  [[nodiscard]] std::uint64_t now() const {
    return rt_ != nullptr && rt_->os() != nullptr
               ? rt_->os()->system().stats().cpu_cycles
               : 0;
  }

  Runtime* rt_;
  obs::EventKind kind_;
  const char* tag_;
  std::uint64_t start_;
  obs::PhaseScope profiled_;
};

}  // namespace abftecc::abft

// Memory-backend policy: the kernel <-> memory boundary, one level above
// the per-element Tap (common/tap.hpp).
//
// A MemBackend bundles three things a kernel needs from the platform it
// runs on:
//   1. a Tap for per-element instrumentation (sim mode issues every
//      reference into memsim; native mode compiles taps away),
//   2. a TickClock -- the backend's *native* time source, so FtStats phase
//      timers read simulated cycles in simulated mode and steady_clock in
//      native mode instead of always polling host wall-clock,
//   3. bulk `touch` + region registration, the degraded instrumentation
//      native mode keeps: kernels announce whole panels/tiles instead of
//      scalars, and fault injection poisons registered regions in place.
//
// A backend is the only way into an FT kernel: every public member that
// issues references takes one, so FtStats seconds always come from the
// backend's clock. The tap stays the inner loops' per-element interface.
#pragma once

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/tap.hpp"

namespace abftecc {

enum class BackendMode : std::uint8_t {
  kSimulated,  ///< instrumented memsim path: cycles/energy/ECC authoritative
  kNative,     ///< hardware speed: region-level fault visibility only
};

constexpr std::string_view to_string(BackendMode m) {
  return m == BackendMode::kSimulated ? "sim" : "native";
}

/// Bulk-touch classification (mirrors memsim::AccessKind without pulling
/// the simulator headers into common/).
enum class MemOp : std::uint8_t { kRead, kWrite, kUpdate };

/// Type-erased monotone time source. Default-constructed it reads host
/// steady_clock nanoseconds; a simulated backend points it at the memory
/// system's cycle counter so phase attribution is deterministic and
/// immune to host scheduling noise.
class TickClock {
 public:
  /// Host wall clock: steady_clock nanoseconds.
  TickClock() = default;

  /// Custom source: `now_fn(ctx)` returns monotone ticks worth
  /// `seconds_per_tick` seconds each. `ctx` must outlive the clock.
  TickClock(const void* ctx, std::uint64_t (*now_fn)(const void*),
            double seconds_per_tick)
      : ctx_(ctx), now_(now_fn), seconds_per_tick_(seconds_per_tick) {}

  [[nodiscard]] std::uint64_t now() const {
    if (now_ != nullptr) return now_(ctx_);
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  [[nodiscard]] double seconds_per_tick() const { return seconds_per_tick_; }

  /// Seconds elapsed since a previous `now()` sample.
  [[nodiscard]] double seconds_since(std::uint64_t start) const {
    return static_cast<double>(now() - start) * seconds_per_tick_;
  }

 private:
  const void* ctx_ = nullptr;
  std::uint64_t (*now_)(const void*) = nullptr;
  double seconds_per_tick_ = 1e-9;
};

/// The backend contract (DESIGN.md section 10). `Tap` names the per-element
/// tap type handed to the inner loops; `touch` is the bulk path used where
/// per-element reporting would defeat native speed.
template <typename B>
concept MemBackend = requires(B& b, const void* p, std::size_t n, MemOp op) {
  typename B::Tap;
  requires MemTap<typename B::Tap>;
  { b.tap() } -> MemTap;
  { b.clock() } -> std::same_as<TickClock>;
  { b.mode() } -> std::same_as<BackendMode>;
  { b.touch(p, n, op) } -> std::same_as<void>;
};

/// Native backend: raw typed spans at hardware speed. Instrumentation
/// degrades to byte counters per bulk touch, and fault injection degrades
/// to in-place bit poisoning of registered regions -- there is no ECC
/// model between the kernel and its memory, which is exactly the software
/// half of the paper's cooperative scheme running on real silicon.
class NativeBackend {
 public:
  using Tap = NullTap;

  struct Region {
    void* base = nullptr;
    std::size_t size = 0;
    std::string name;
    bool abft_protected = false;
  };

  struct Counters {
    std::uint64_t touches = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t faults_injected = 0;
  };

  [[nodiscard]] Tap tap() const { return {}; }
  [[nodiscard]] TickClock clock() const { return {}; }
  [[nodiscard]] BackendMode mode() const { return BackendMode::kNative; }

  void touch(const void*, std::size_t n, MemOp op) {
    ++counters_.touches;
    switch (op) {
      case MemOp::kRead: counters_.bytes_read += n; break;
      case MemOp::kWrite: counters_.bytes_written += n; break;
      case MemOp::kUpdate:
        counters_.bytes_read += n;
        counters_.bytes_written += n;
        break;
    }
  }

  // --- region registry -----------------------------------------------------

  /// Register a buffer for fault-injection visibility. Returns a region id;
  /// id 0 is never used.
  std::size_t register_region(void* base, std::size_t size, std::string name,
                              bool abft_protected) {
    regions_.push_back(
        Region{base, size, std::move(name), abft_protected});
    return regions_.size();  // 1-based
  }

  void unregister_region(std::size_t id) {
    if (id == 0 || id > regions_.size()) return;
    regions_[id - 1] = Region{};
  }

  [[nodiscard]] const Region* region_of(const void* p) const {
    const auto addr = reinterpret_cast<std::uintptr_t>(p);
    for (const Region& r : regions_) {
      if (r.base == nullptr) continue;
      const auto base = reinterpret_cast<std::uintptr_t>(r.base);
      if (addr >= base && addr < base + r.size) return &r;
    }
    return nullptr;
  }

  /// Flip one bit of a registered region in place -- the native analogue of
  /// a DRAM fault escaping weak ECC. Returns false for an out-of-range
  /// target.
  bool poison_bit(std::size_t id, std::size_t byte_offset, unsigned bit) {
    if (id == 0 || id > regions_.size() || bit > 7) return false;
    Region& r = regions_[id - 1];
    if (r.base == nullptr || byte_offset >= r.size) return false;
    static_cast<unsigned char*>(r.base)[byte_offset] ^=
        static_cast<unsigned char>(1u << bit);
    ++counters_.faults_injected;
    return true;
  }

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const std::vector<Region>& regions() const { return regions_; }

 private:
  std::vector<Region> regions_;
  Counters counters_;
};

/// Host-clocked backend around a bare tap, for callers that observe or
/// perturb the reference stream themselves (tests and examples inject
/// faults through counting taps). `touch` is forwarded per double, as in
/// the simulated backend.
template <MemTap T>
class TapBackend {
 public:
  using Tap = T;

  TapBackend() = default;
  explicit TapBackend(T tap) : tap_(tap) {}

  [[nodiscard]] Tap tap() const { return tap_; }
  [[nodiscard]] TickClock clock() const { return {}; }
  [[nodiscard]] BackendMode mode() const { return BackendMode::kNative; }

  void touch(const void* p, std::size_t n, MemOp op) {
    const auto* c = static_cast<const char*>(p);
    for (std::size_t off = 0; off < n; off += sizeof(double)) {
      const std::size_t len = std::min(n - off, sizeof(double));
      switch (op) {
        case MemOp::kRead: tap_.read(c + off, len); break;
        case MemOp::kWrite: tap_.write(c + off, len); break;
        case MemOp::kUpdate: tap_.update(c + off, len); break;
      }
    }
  }

 private:
  T tap_{};
};

static_assert(MemBackend<NativeBackend>);
static_assert(MemBackend<TapBackend<NullTap>>);
static_assert(!MemBackend<NullTap>);
static_assert(!MemTap<NativeBackend>);

}  // namespace abftecc

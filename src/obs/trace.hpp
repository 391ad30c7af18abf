// Structured event tracer (tentpole piece 2): a bounded ring buffer of
// typed events timestamped in simulated CPU cycles, recording the whole
// cooperative pipeline -- fault injection in DRAM, ECC decode at the
// memory controller, the OS interrupt and expose/panic decision, the ABFT
// runtime drain, and each FT kernel's verify/recover phases.
//
// The tracer is OFF by default and costs one predicted branch per trace
// point when disabled (the acceptance bar: no measurable overhead on the
// micro_kernels suite). When enabled, recording is a bounded-memory ring
// write: the buffer never grows, old events are overwritten and counted
// in dropped(). The ring is allocated on the first recorded event, so a
// tracer that never records (every private Session's, by default) costs
// no memory.
//
// Export: Chrome trace_event JSON, loadable in chrome://tracing and
// Perfetto. One simulated cycle is written as one microsecond of trace
// time; each architectural layer gets its own tid lane.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace abftecc::obs {

class JsonWriter;

/// Event taxonomy across the cooperation path (README.md "Observability").
enum class EventKind : std::uint8_t {
  // fault layer
  kFaultInject,       ///< bit flip queued on a DRAM line (addr, a0=bit)
  kChipKillInject,    ///< chip failure queued (addr, a0=chip, a1=pattern)
  kFaultCleared,      ///< writeback overwrote pending corruption (addr)
  kSilentCorruption,  ///< corruption passed ECC undetected (addr)
  // memory controller
  kEccCorrected,      ///< in-controller correction (addr, a0=words)
  kEccUncorrectable,  ///< detected-uncorrectable, error register written
                      ///< (addr, a0=chip)
  // memory system
  kDemandMiss,        ///< LLC demand miss (addr, a0=stall cycles)
  // OS layer
  kEccInterrupt,      ///< MC interrupt entered the handler (addr)
  kErrorExposed,      ///< error published to the shared log (addr)
  kPanic,             ///< uncorrectable outside ABFT coverage (addr)
  kPageRetired,       ///< frame retired + allocation migrated (addr)
  kEscalated,         ///< would-be panic absorbed by the recovery ladder
  kEccRepromoted,     ///< region promoted back to the strong scheme (addr)
  // ABFT runtime / kernels
  kErrorsDrained,     ///< runtime drained the log (a0=errors located)
  kErrorLocated,      ///< one error mapped to (a0=structure, a1=element)
  kVerify,            ///< kernel verification phase (complete event)
  kRecover,           ///< kernel correction phase (complete event)
  kEncode,            ///< kernel checksum-encode phase (complete event)
  // recovery ladder
  kRecompute,         ///< tier-2 block recompute attempt (a0=attempt)
  kCheckpoint,        ///< checkpoint committed (a0=epoch)
  kRollback,          ///< verified checkpoint restored (a0=epoch)
};

[[nodiscard]] std::string_view to_string(EventKind k);

/// Perfetto lane (Chrome trace `tid`) per architectural layer.
[[nodiscard]] unsigned lane_of(EventKind k);

/// True for phases exported as Chrome 'X' (complete) events with a
/// duration; the rest are 'i' (instant) events.
[[nodiscard]] constexpr bool is_phase(EventKind k) {
  return k == EventKind::kVerify || k == EventKind::kRecover ||
         k == EventKind::kEncode;
}

/// Bit for `kind` in a Tracer kind mask.
[[nodiscard]] constexpr std::uint64_t kind_bit(EventKind k) {
  return std::uint64_t{1} << static_cast<unsigned>(k);
}

struct TraceEvent {
  std::uint64_t ts = 0;    ///< simulated CPU cycle of the event (phase start)
  std::uint64_t dur = 0;   ///< phase length in cycles; 0 for instants
  std::uint64_t addr = 0;  ///< physical address, when the event has one
  std::uint64_t a0 = 0;    ///< kind-specific argument (see EventKind)
  std::uint64_t a1 = 0;
  std::uint64_t seq = 0;   ///< global record order (ring survivor ordering)
  EventKind kind = EventKind::kFaultInject;
  const char* tag = nullptr;  ///< static-string label (e.g. kernel name)
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  void enable(bool on = true) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Record only kinds whose kind_bit() is set (default: everything).
  /// Campaign latency measurement masks out kDemandMiss so the flood of
  /// miss instants cannot evict the interrupt/recovery events it scans
  /// the ring for.
  void set_mask(std::uint64_t mask) { mask_ = mask; }
  [[nodiscard]] std::uint64_t mask() const { return mask_; }

  /// Replace the ring (drops recorded events).
  void set_capacity(std::size_t capacity);
  void clear();

  /// Record `o`'s surviving events after this tracer's, renumbered as if
  /// they had been recorded here; events `o` dropped count as dropped here
  /// too. Appending per-node tracers in node order reproduces the ring a
  /// serial run over those nodes would have left.
  void append(const Tracer& o);

  void instant(EventKind kind, std::uint64_t ts, std::uint64_t addr = 0,
               std::uint64_t a0 = 0, std::uint64_t a1 = 0,
               const char* tag = nullptr) {
    if (!enabled_ || (mask_ & kind_bit(kind)) == 0) return;
    push(TraceEvent{ts, 0, addr, a0, a1, 0, kind, tag});
  }

  void complete(EventKind kind, const char* tag, std::uint64_t ts_start,
                std::uint64_t dur, std::uint64_t addr = 0,
                std::uint64_t a0 = 0, std::uint64_t a1 = 0) {
    if (!enabled_ || (mask_ & kind_bit(kind)) == 0) return;
    push(TraceEvent{ts_start, dur, addr, a0, a1, 0, kind, tag});
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events overwritten because the ring wrapped.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Total events ever recorded (survivors + dropped).
  [[nodiscard]] std::uint64_t recorded() const { return next_seq_; }

  /// Surviving events in record order (oldest first).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Chrome trace_event JSON document ({"traceEvents":[...]}), events
  /// sorted by ts so importers see a monotonic timeline.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Write chrome_trace_json() to `path`; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  void push(const TraceEvent& e);

  std::vector<TraceEvent> ring_;  ///< empty until the first push
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;   ///< next write slot
  std::size_t count_ = 0;  ///< survivors (<= capacity)
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t mask_ = ~std::uint64_t{0};
  bool enabled_ = false;
};

/// Emit one TraceEvent as a Chrome trace_event object into an open array.
/// Shared by Tracer::chrome_trace_json() and the merged profiler exporter
/// (obs/profile.hpp) so both produce identical event encoding.
void write_chrome_event(JsonWriter& w, const TraceEvent& e);

/// Tracer the instrumented layers on this thread record into. Disabled
/// until something (a test, or a bench binary's --trace flag) enables it.
/// Per-thread like obs::default_registry(), and overridable the same way.
Tracer& default_tracer();

/// RAII override of this thread's default_tracer(); same nesting contract
/// as obs::RegistryScope.
class TracerScope {
 public:
  explicit TracerScope(Tracer& t);
  ~TracerScope();
  TracerScope(const TracerScope&) = delete;
  TracerScope& operator=(const TracerScope&) = delete;

 private:
  Tracer* prev_;
};

}  // namespace abftecc::obs

#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace abftecc::obs {

std::string_view to_string(EventKind k) {
  switch (k) {
    case EventKind::kFaultInject: return "fault.inject";
    case EventKind::kChipKillInject: return "fault.chip_kill";
    case EventKind::kFaultCleared: return "fault.cleared_by_writeback";
    case EventKind::kSilentCorruption: return "fault.silent_corruption";
    case EventKind::kEccCorrected: return "mc.ecc_corrected";
    case EventKind::kEccUncorrectable: return "mc.ecc_uncorrectable";
    case EventKind::kDemandMiss: return "memsim.demand_miss";
    case EventKind::kEccInterrupt: return "os.ecc_interrupt";
    case EventKind::kErrorExposed: return "os.error_exposed";
    case EventKind::kPanic: return "os.panic";
    case EventKind::kPageRetired: return "os.page_retired";
    case EventKind::kEscalated: return "os.escalated";
    case EventKind::kEccRepromoted: return "os.ecc_repromoted";
    case EventKind::kErrorsDrained: return "abft.errors_drained";
    case EventKind::kErrorLocated: return "abft.error_located";
    case EventKind::kVerify: return "abft.verify";
    case EventKind::kRecover: return "abft.recover";
    case EventKind::kEncode: return "abft.encode";
    case EventKind::kRecompute: return "recovery.recompute";
    case EventKind::kCheckpoint: return "recovery.checkpoint";
    case EventKind::kRollback: return "recovery.rollback";
  }
  return "?";
}

unsigned lane_of(EventKind k) {
  switch (k) {
    case EventKind::kFaultInject:
    case EventKind::kChipKillInject:
    case EventKind::kFaultCleared:
    case EventKind::kSilentCorruption:
      return 0;  // fault layer (DRAM cells)
    case EventKind::kEccCorrected:
    case EventKind::kEccUncorrectable:
    case EventKind::kDemandMiss:
      return 1;  // memory controller / memory system
    case EventKind::kEccInterrupt:
    case EventKind::kErrorExposed:
    case EventKind::kPanic:
    case EventKind::kPageRetired:
    case EventKind::kEscalated:
    case EventKind::kEccRepromoted:
      return 2;  // OS layer
    case EventKind::kErrorsDrained:
    case EventKind::kErrorLocated:
    case EventKind::kRecompute:
    case EventKind::kCheckpoint:
    case EventKind::kRollback:
      return 3;  // ABFT runtime / recovery ladder
    case EventKind::kVerify:
    case EventKind::kRecover:
    case EventKind::kEncode:
      return 4;  // FT kernel phases
  }
  return 5;
}

Tracer::Tracer(std::size_t capacity) { set_capacity(capacity); }

void Tracer::set_capacity(std::size_t capacity) {
  ABFTECC_REQUIRE(capacity > 0);
  capacity_ = capacity;
  ring_ = {};
  head_ = 0;
  count_ = 0;
  next_seq_ = 0;
  dropped_ = 0;
}

void Tracer::clear() {
  head_ = 0;
  count_ = 0;
  next_seq_ = 0;
  dropped_ = 0;
}

void Tracer::append(const Tracer& o) {
  next_seq_ += o.dropped_;
  dropped_ += o.dropped_;
  for (const TraceEvent& e : o.snapshot()) push(e);
}

void Tracer::push(const TraceEvent& e) {
  if (ring_.empty()) ring_.resize(capacity_);
  TraceEvent& slot = ring_[head_];
  if (count_ == ring_.size())
    ++dropped_;  // overwriting the oldest survivor
  else
    ++count_;
  slot = e;
  slot.seq = next_seq_++;
  head_ = (head_ + 1) % ring_.size();
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  if (count_ == 0) return out;
  out.reserve(count_);
  const std::size_t start =
      (head_ + ring_.size() - count_) % ring_.size();
  for (std::size_t i = 0; i < count_; ++i)
    out.push_back(ring_[(start + i) % ring_.size()]);
  return out;
}

void write_chrome_event(JsonWriter& w, const TraceEvent& e) {
  w.begin_object();
  w.field("name",
          e.tag != nullptr ? std::string_view(e.tag) : to_string(e.kind));
  w.field("cat", to_string(e.kind));
  w.field("ph", is_phase(e.kind) ? "X" : "i");
  w.field("ts", e.ts);  // 1 simulated cycle == 1 trace microsecond
  if (is_phase(e.kind))
    w.field("dur", e.dur);
  else
    w.field("s", "g");  // instant scope: global
  w.field("pid", 1);
  w.field("tid", lane_of(e.kind));
  w.key("args").begin_object();
  w.field("seq", e.seq);
  if (e.addr != 0) w.field("phys_addr", e.addr);
  w.field("a0", e.a0);
  w.field("a1", e.a1);
  w.end_object();
  w.end_object();
}

std::string Tracer::chrome_trace_json() const {
  std::vector<TraceEvent> events = snapshot();
  // Importers want a monotone timeline; phase events are recorded at phase
  // END with ts = start, so record order is not ts order.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts < b.ts;
                   });
  JsonWriter w;
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  for (const auto& e : events) write_chrome_event(w, e);
  w.end_array();
  w.end_object();
  return w.take();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = chrome_trace_json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

namespace {

Tracer*& tracer_slot() {
  thread_local Tracer* slot = nullptr;
  return slot;
}

}  // namespace

Tracer& default_tracer() {
  if (Tracer* t = tracer_slot(); t != nullptr) return *t;
  thread_local Tracer owned;
  return owned;
}

TracerScope::TracerScope(Tracer& t) : prev_(tracer_slot()) {
  tracer_slot() = &t;
}

TracerScope::~TracerScope() { tracer_slot() = prev_; }

}  // namespace abftecc::obs

// MemoryTap: the sim-mode Tap policy (see common/tap.hpp).
//
// Every instrumented kernel reference is translated from its host (virtual)
// address to a simulated physical address through the Os region that holds
// it (Os::translate), and issued to the MemorySystem. As on the paper's
// simulated node, all data a kernel touches comes from the Os allocator
// (malloc_ecc / malloc_plain), so simulated addresses -- and therefore
// cycles -- follow the Os's allocation order alone, whatever host addresses
// the data has. A reference outside every region is a contract violation.
//
// A context can also record what the memory system's front end did, or
// replay such a record instead of translating and looking up the caches
// (memsim/front_end.hpp, DESIGN.md section 6c).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/error.hpp"
#include "common/tap.hpp"
#include "memsim/system.hpp"
#include "os/os.hpp"

namespace abftecc::sim {

/// Shared state behind the copyable MemoryTap handles.
class TapContext {
 public:
  TapContext(os::Os& os, memsim::MemorySystem& system)
      : os_(os), system_(system) {}

  void issue(const void* p, std::size_t bytes, memsim::AccessKind kind) {
    if (replay_ != nullptr) {
      system_.defer_reference();
      return;
    }
    const os::Os::Translation* t = os_.translate(p);
    ABFTECC_REQUIRE(t != nullptr);
    const std::uint64_t phys =
        t->phys_base + (reinterpret_cast<std::uintptr_t>(p) - t->begin);
    if (t->abft)
      ++refs_abft_;
    else
      ++refs_other_;
    // A reference that straddles an L1 line boundary touches both lines.
    system_.access(phys, kind);
    const std::uint64_t line = system_.config().l1.line_bytes;
    if ((phys & (line - 1)) + bytes > line) {
      if (record_ != nullptr) record_->straddle(system_.stats().mem_refs - 1);
      system_.access(phys + bytes - 1, kind);
    }
    if (trigger_ && refs_abft_ + refs_other_ >= trigger_at_) {
      // One-shot: clear before firing so the callback may itself issue
      // accesses (fault materialization reads lines through the system).
      auto fn = std::move(trigger_);
      trigger_ = nullptr;
      fn();
    }
  }

  /// Fire `fn` exactly once, right after the `at`-th reference (1-based)
  /// issues. The campaign engine uses this to inject a fault at a
  /// deterministic point in the middle of a run; `at` past the run's total
  /// reference count never fires.
  void set_ref_trigger(std::uint64_t at, std::function<void()> fn) {
    ABFTECC_REQUIRE(replay_ == nullptr);
    trigger_at_ = at;
    trigger_ = std::move(fn);
  }

  /// Record the front end of the run about to start into `rec`. The memory
  /// system must not have been accessed yet, and every access of the run
  /// must come through this context.
  void record(memsim::FrontEndRecord& rec) {
    ABFTECC_REQUIRE(fresh() && trigger_ == nullptr);
    rec.begin(system_.config());
    record_ = &rec;
    system_.record_front_end(&rec);
  }

  /// Replay `rec` for the run about to start: each reference is only
  /// counted, and the memory system replays the record's events when its
  /// state is read (MemorySystem::settle) instead of translating and looking
  /// up the caches. The run must issue exactly the recorded references, on
  /// the recorded layout, with no trigger armed and no direct
  /// MemorySystem::access.
  void replay(const memsim::FrontEndRecord& rec) {
    ABFTECC_REQUIRE(fresh() && trigger_ == nullptr);
    ABFTECC_REQUIRE(rec.matches(system_.config()));
    replay_ = &rec;
    system_.replay_front_end(&rec);
  }

  /// End of the recorded or replayed run. A recording takes the caches'
  /// final stats, the reference counts and the Os layout into its record; a
  /// replay checks it consumed its record exactly and adopts the record's
  /// reference counts. No-op on a live context.
  void finish() {
    if (record_ != nullptr) {
      memsim::FrontEndRecord& rec = *record_;
      system_.record_front_end(nullptr);
      record_ = nullptr;
      // Every access of the run came through this context.
      ABFTECC_REQUIRE(system_.stats().mem_refs ==
                      refs_abft_ + refs_other_ + rec.splits());
      rec.l1 = system_.l1_stats();
      rec.l2 = system_.l2_stats();
      rec.accesses = system_.stats().mem_refs;
      rec.refs_abft = refs_abft_;
      rec.refs_other = refs_other_;
      rec.regions = os_.all_phys_ranges();
      rec.abft_regions = os_.abft_phys_ranges();
      rec.seal();
    }
    if (replay_ != nullptr) {
      const memsim::FrontEndRecord& rec = *replay_;
      // Simulate the deferred references before checking the run.
      system_.settle();
      ABFTECC_REQUIRE(system_.replay_done());
      ABFTECC_REQUIRE(system_.l1_stats().accesses == 0);
      ABFTECC_REQUIRE(system_.stats().mem_refs == rec.accesses);
      ABFTECC_REQUIRE(system_.replayed_refs() ==
                      rec.refs_abft + rec.refs_other);
      ABFTECC_REQUIRE(os_.all_phys_ranges() == rec.regions &&
                      os_.abft_phys_ranges() == rec.abft_regions);
      system_.replay_front_end(nullptr);
      refs_abft_ = rec.refs_abft;
      refs_other_ = rec.refs_other;
      replayed_ = &rec;
      replay_ = nullptr;
    }
  }

  /// The record the finished run replayed, or null.
  [[nodiscard]] const memsim::FrontEndRecord* replayed() const {
    return replayed_;
  }

  [[nodiscard]] std::uint64_t refs_abft() const { return refs_abft_; }
  [[nodiscard]] std::uint64_t refs_other() const { return refs_other_; }

 private:
  [[nodiscard]] bool fresh() const {
    return record_ == nullptr && replay_ == nullptr && replayed_ == nullptr &&
           system_.stats().mem_refs == 0 && system_.l1_stats().accesses == 0;
  }

  os::Os& os_;
  memsim::MemorySystem& system_;
  std::uint64_t refs_abft_ = 0;
  std::uint64_t refs_other_ = 0;
  std::uint64_t trigger_at_ = 0;
  std::function<void()> trigger_;
  memsim::FrontEndRecord* record_ = nullptr;
  const memsim::FrontEndRecord* replay_ = nullptr;
  const memsim::FrontEndRecord* replayed_ = nullptr;
};

/// Copyable handle passed by value through the kernels.
class MemoryTap {
 public:
  explicit MemoryTap(TapContext& ctx) : ctx_(&ctx) {}

  void read(const void* p, std::size_t n = sizeof(double)) {
    ctx_->issue(p, n, memsim::AccessKind::kRead);
  }
  void write(const void* p, std::size_t n = sizeof(double)) {
    ctx_->issue(p, n, memsim::AccessKind::kWrite);
  }
  void update(const void* p, std::size_t n = sizeof(double)) {
    ctx_->issue(p, n, memsim::AccessKind::kUpdate);
  }

 private:
  TapContext* ctx_;
};

static_assert(MemTap<MemoryTap>);

}  // namespace abftecc::sim

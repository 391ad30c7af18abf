// MemoryTap: the sim-mode Tap policy (see common/tap.hpp).
//
// Every instrumented kernel reference is translated from its host (virtual)
// address to a simulated physical address through the Os region that holds
// it, and issued to the MemorySystem. As on the paper's simulated node, all
// data a kernel touches comes from the Os allocator (malloc_ecc /
// malloc_plain), so simulated addresses -- and therefore cycles -- follow
// the Os's allocation order alone, whatever host addresses the data has. A
// reference outside every region is a contract violation.
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
    const auto addr = reinterpret_cast<std::uintptr_t>(p);
    // Fast path: same region as the previous reference.
    std::uint64_t phys;
    bool abft = false;
    if (last_ != nullptr && addr >= last_begin_ && addr < last_end_) {
      phys = last_phys_base_ + (addr - last_begin_);
      abft = last_abft_;
    } else {
      const os::Region* r = os_.region_of(p);
      ABFTECC_REQUIRE(r != nullptr);
      last_ = r;
      last_begin_ = reinterpret_cast<std::uintptr_t>(r->host_base);
      last_end_ = last_begin_ + r->size;
      last_phys_base_ = r->phys_base;
      last_abft_ = r->abft_protected;
      phys = r->phys_base + (addr - last_begin_);
      abft = r->abft_protected;
    }
    if (abft)
      ++refs_abft_;
    else
      ++refs_other_;
    // A reference that straddles an L1 line boundary touches both lines.
    system_.access(phys, kind);
    const std::uint64_t line = system_.config().l1.line_bytes;
    if ((phys & (line - 1)) + bytes > line)
      system_.access(phys + bytes - 1, kind);
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
    trigger_at_ = at;
    trigger_ = std::move(fn);
  }

  [[nodiscard]] std::uint64_t refs_abft() const { return refs_abft_; }
  [[nodiscard]] std::uint64_t refs_other() const { return refs_other_; }

 private:
  os::Os& os_;
  memsim::MemorySystem& system_;
  const os::Region* last_ = nullptr;
  std::uintptr_t last_begin_ = 0, last_end_ = 0;
  std::uint64_t last_phys_base_ = 0;
  bool last_abft_ = false;
  std::uint64_t refs_abft_ = 0;
  std::uint64_t refs_other_ = 0;
  std::uint64_t trigger_at_ = 0;
  std::function<void()> trigger_;
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

// SimBackend: the simulated implementation of the MemBackend contract
// (common/backend.hpp). Its tap issues every per-element reference into a
// TapContext, and its clock reads the memory system's cycle counter, so
// FtStats phase attribution in simulated mode is exact and deterministic
// instead of host wall-clock.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/backend.hpp"
#include "memsim/system.hpp"
#include "sim/tap.hpp"

namespace abftecc::sim {

class SimBackend {
 public:
  using Tap = MemoryTap;

  SimBackend(TapContext& ctx, const memsim::MemorySystem& system)
      : ctx_(&ctx), system_(&system) {}

  [[nodiscard]] Tap tap() const { return MemoryTap(*ctx_); }

  /// Simulated cycles; one tick = one CPU cycle at the modeled frequency.
  [[nodiscard]] TickClock clock() const { return system_->cycle_clock(); }

  [[nodiscard]] BackendMode mode() const { return BackendMode::kSimulated; }

  /// Bulk touch stays faithful: issue the range element-by-element at
  /// double granularity so cache/DRAM behavior matches a scalar loop.
  void touch(const void* p, std::size_t n, MemOp op) {
    const auto kind = op == MemOp::kRead    ? memsim::AccessKind::kRead
                      : op == MemOp::kWrite ? memsim::AccessKind::kWrite
                                            : memsim::AccessKind::kUpdate;
    const auto* c = static_cast<const char*>(p);
    std::size_t off = 0;
    for (; off + sizeof(double) <= n; off += sizeof(double))
      ctx_->issue(c + off, sizeof(double), kind);
    if (off < n) ctx_->issue(c + off, n - off, kind);
  }

  [[nodiscard]] TapContext& context() { return *ctx_; }

 private:
  TapContext* ctx_;
  const memsim::MemorySystem* system_;
};

static_assert(MemBackend<SimBackend>);

}  // namespace abftecc::sim

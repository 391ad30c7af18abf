#include "capture.hpp"

#include <memory>
#include <unordered_map>

#include "memsim/address_map.hpp"
#include "memsim/cache.hpp"
#include "memsim/dram.hpp"
#include "memsim/system.hpp"
#include "perfbench.hpp"
#include "sim/platform.hpp"
#include "sim/tap.hpp"

namespace perfbench {

using abftecc::memsim::AccessKind;
using abftecc::memsim::MemorySystem;

namespace {

thread_local StreamCapture* t_capture = nullptr;

[[maybe_unused]] void observe(StreamCapture& c, std::uint64_t phys, AccessKind kind) {
  const std::uint64_t i = c.seen++;
  if (i >= c.skip && i - c.skip < c.limit)
    c.refs.push_back(phys << 2 | static_cast<std::uint64_t>(kind));
}

}  // namespace
}  // namespace perfbench

#ifdef PERFBENCH_CAPTURE
// The linker redirects every call to MemorySystem::access (mangled below)
// to __wrap_<symbol> and binds __real_<symbol> to the original. If a later
// version stops exporting the symbol out of line, the traced executable
// fails to link instead of capturing nothing.
extern "C" {
void __real__ZN7abftecc6memsim12MemorySystem6accessEmNS0_10AccessKindE(
    abftecc::memsim::MemorySystem* self, std::uint64_t phys,
    abftecc::memsim::AccessKind kind);

void __wrap__ZN7abftecc6memsim12MemorySystem6accessEmNS0_10AccessKindE(
    abftecc::memsim::MemorySystem* self, std::uint64_t phys,
    abftecc::memsim::AccessKind kind) {
  if (perfbench::StreamCapture* c = perfbench::t_capture)
    perfbench::observe(*c, phys, kind);
  __real__ZN7abftecc6memsim12MemorySystem6accessEmNS0_10AccessKindE(self, phys,
                                                                   kind);
}
}
#endif

namespace perfbench {

namespace {

/// MemorySystem::access without the capture wrapper.
inline void direct_access(MemorySystem& m, std::uint64_t phys,
                          AccessKind kind) {
#ifdef PERFBENCH_CAPTURE
  __real__ZN7abftecc6memsim12MemorySystem6accessEmNS0_10AccessKindE(&m, phys,
                                                                   kind);
#else
  m.access(phys, kind);
#endif
}

/// A cold memory system with `layout`'s configuration and ECC ranges.
std::unique_ptr<MemorySystem> cold_copy(MemorySystem& layout) {
  abftecc::memsim::Hooks hooks;
  hooks.region_classifier = layout.hooks().region_classifier;
  auto m = std::make_unique<MemorySystem>(
      layout.config(), layout.controller().default_scheme(), hooks);
  m->controller() = layout.controller();
  return m;
}

struct LineRef {
  std::uint64_t addr;
  bool write;
};

}  // namespace

void capture_begin(StreamCapture& c) {
  c.refs.reserve(c.limit);
  t_capture = &c;
}

void capture_end() { t_capture = nullptr; }

ReplayCost& ReplayCost::operator+=(const ReplayCost& o) {
  refs += o.refs;
  same_line += o.same_line;
  access_s += o.access_s;
  wrapped_access_s += o.wrapped_access_s;
  tap_s += o.tap_s;
  l1_s += o.l1_s;
  l1_refs += o.l1_refs;
  l2_s += o.l2_s;
  l2_refs += o.l2_refs;
  dram_s += o.dram_s;
  dram_refs += o.dram_refs;
  mc_s += o.mc_s;
  mc_calls += o.mc_calls;
  return *this;
}

ReplayCost replay(const StreamCapture& c, abftecc::sim::Session& layout) {
  using namespace abftecc::memsim;
  ReplayCost r;
  const std::size_t n = c.refs.size();
  if (n == 0) return r;
  MemorySystem& src = layout.memory();
  const SystemConfig& cfg = src.config();
  const std::uint64_t line_bytes = cfg.l1.line_bytes;
  auto phys_of = [](std::uint64_t e) { return e >> 2; };
  auto kind_of = [](std::uint64_t e) { return static_cast<AccessKind>(e & 3); };

  r.refs = static_cast<double>(n);
  for (std::size_t i = 1; i < n; ++i)
    if (phys_of(c.refs[i]) / line_bytes == phys_of(c.refs[i - 1]) / line_bytes)
      r.same_line += 1;

  {
    auto m = cold_copy(src);
    const auto t0 = Clock::now();
    for (const std::uint64_t e : c.refs) direct_access(*m, phys_of(e), kind_of(e));
    r.access_s = seconds_since(t0);
  }
  {
    auto m = cold_copy(src);
    const auto t0 = Clock::now();
    for (const std::uint64_t e : c.refs) m->access(phys_of(e), kind_of(e));
    r.wrapped_access_s = seconds_since(t0);
  }

  // Host pointers for the translation layer: inside `layout`'s Os regions
  // where the physical address falls in one, otherwise in an unregistered
  // scratch range at the same page offset, so TapContext takes the same
  // region / anonymous-page paths as the captured run. The scratch memory
  // is never touched; only its addresses are used.
  {
    const std::uint64_t page = cfg.page_bytes;
    std::unordered_map<std::uint64_t, std::uint64_t> anon_slot;
    for (const std::uint64_t e : c.refs)
      if (layout.os().region_of_phys(phys_of(e)) == nullptr)
        anon_slot.try_emplace(phys_of(e) / page, anon_slot.size());
    std::unique_ptr<std::byte[]> scratch(
        new std::byte[(anon_slot.size() + 1) * page]);
    std::vector<const void*> ptrs(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t p = phys_of(c.refs[i]);
      if (const auto* reg = layout.os().region_of_phys(p); reg != nullptr)
        ptrs[i] = reg->host_base + (p - reg->phys_base);
      else
        ptrs[i] = scratch.get() + anon_slot.at(p / page) * page + p % page;
    }
    auto m = cold_copy(src);
    abftecc::sim::TapContext tap(layout.os(), *m);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) tap.issue(ptrs[i], 1, kind_of(c.refs[i]));
    r.tap_s = seconds_since(t0);
  }

  // L1 on every reference (timed), then an untimed pass through fresh L1
  // and L2 models that derives the L2 and DRAM request streams the way
  // MemorySystem::access does.
  std::vector<LineRef> l2_stream, dram_stream;
  {
    Cache l1(cfg.l1);
    const auto t0 = Clock::now();
    for (const std::uint64_t e : c.refs)
      l1.access(phys_of(e) / line_bytes * line_bytes,
                kind_of(e) != AccessKind::kRead);
    r.l1_s = seconds_since(t0);
    r.l1_refs = static_cast<double>(n);
  }
  {
    Cache l1(cfg.l1), l2(cfg.l2);
    for (const std::uint64_t e : c.refs) {
      const std::uint64_t line = phys_of(e) / line_bytes * line_bytes;
      const CacheAccess a1 = l1.access(line, kind_of(e) != AccessKind::kRead);
      if (a1.hit) continue;
      if (a1.evicted && a1.evicted_dirty) {
        l2_stream.push_back({a1.evicted_line_addr, true});
        const CacheAccess wb = l2.access(a1.evicted_line_addr, true);
        if (!wb.hit) {
          dram_stream.push_back({a1.evicted_line_addr, false});
          if (wb.evicted && wb.evicted_dirty)
            dram_stream.push_back({wb.evicted_line_addr, true});
        }
      }
      l2_stream.push_back({line, false});
      const CacheAccess a2 = l2.access(line, false);
      if (a2.hit) continue;
      if (a2.evicted && a2.evicted_dirty)
        dram_stream.push_back({a2.evicted_line_addr, true});
      dram_stream.push_back({line, false});
    }
  }
  {
    Cache l2(cfg.l2);
    const auto t0 = Clock::now();
    for (const LineRef& x : l2_stream) l2.access(x.addr, x.write);
    r.l2_s = seconds_since(t0);
    r.l2_refs = static_cast<double>(l2_stream.size());
  }
  if (!dram_stream.empty()) {
    const MemoryController& mc = src.controller();
    std::vector<AccessShape> shapes;
    shapes.reserve(dram_stream.size());
    for (const LineRef& x : dram_stream)
      shapes.push_back(shape_for(mc.scheme_for(x.addr)));
    AddressMap map(cfg.org, static_cast<unsigned>(cfg.l2.line_bytes));
    DramSystem dram(cfg, map);
    abftecc::Cycles now = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < dram_stream.size(); ++i) {
      const DramAccessResult res = dram.issue(
          map.decompose(dram_stream[i].addr), dram_stream[i].write, shapes[i],
          now);
      if (!dram_stream[i].write) now = res.completion;  // reads block
    }
    r.dram_s = seconds_since(t0);
    r.dram_refs = static_cast<double>(dram_stream.size());

    // scheme_for is a few ns per call: repeat the stream until the timed
    // loop covers at least 2^20 calls.
    const std::size_t reps = 1 + (std::size_t{1} << 20) / dram_stream.size();
    const auto t1 = Clock::now();
    for (std::size_t k = 0; k < reps; ++k)
      for (const LineRef& x : dram_stream) (void)mc.scheme_for(x.addr);
    r.mc_s = seconds_since(t1);
    r.mc_calls = static_cast<double>(reps * dram_stream.size());
  }
  return r;
}

}  // namespace perfbench

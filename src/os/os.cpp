#include "os/os.hpp"

#include <cstdlib>

#include "common/error.hpp"
#include "obs/lineage.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace abftecc::os {

struct Os::Allocation {
  Region region;
  std::unique_ptr<std::byte[]> storage;
  unsigned uncorrectable_count = 0;  ///< feeds the re-promotion threshold
};

Os::Os(memsim::MemorySystem& system)
    : system_(system),
      pages_(system.config().capacity_bytes, system.config().page_bytes) {
  system_.controller().set_interrupt_handler(
      [this](const memsim::ErrorRecord& rec) { handle_ecc_interrupt(rec); });
  system_.hooks().region_classifier =
      [this](std::uint64_t phys) { return is_abft_protected_phys(phys); };
}

Os::~Os() {
  system_.controller().set_interrupt_handler(nullptr);
  system_.hooks().region_classifier = nullptr;
}

void* Os::allocate(std::size_t n, ecc::Scheme scheme, std::string name,
                   bool abft_protected, bool program_mc) {
  ABFTECC_REQUIRE(n > 0);
  // Deferred references classify their lines by the layout they ran under.
  system_.settle();
  const std::uint64_t page = pages_.page_bytes();
  const std::uint64_t frames = (n + page - 1) / page;

  const auto phys = pages_.allocate_contiguous(frames, scheme);
  if (!phys.has_value()) return nullptr;

  if (program_mc) {
    const memsim::EccRange range{*phys, *phys + frames * page, scheme};
    if (!system_.controller().set_range(range)) {
      // All 8 MC register pairs busy: the allocation cannot get relaxed
      // protection, so fail the call (the caller may coalesce ranges).
      pages_.free_range(*phys, frames);
      return nullptr;
    }
  }

  auto alloc = std::make_unique<Allocation>();
  alloc->storage = std::make_unique<std::byte[]>(frames * page);
  alloc->region = Region{alloc->storage.get(), static_cast<std::size_t>(frames * page),
                         *phys,   frames,      scheme,
                         abft_protected,       program_mc,
                         std::move(name)};
  void* ptr = alloc->storage.get();
  allocations_.push_back(std::move(alloc));
  return ptr;
}

void* Os::malloc_ecc(std::size_t n, ecc::Scheme scheme, std::string name,
                     bool abft_protected) {
  return allocate(n, scheme, std::move(name), abft_protected,
                  /*program_mc=*/true);
}

void* Os::malloc_plain(std::size_t n, std::string name) {
  return allocate(n, system_.controller().default_scheme(), std::move(name),
                  /*abft_protected=*/false, /*program_mc=*/false);
}

void Os::free_ecc(void* ptr) {
  layout_changing();
  for (auto it = allocations_.begin(); it != allocations_.end(); ++it) {
    if ((*it)->storage.get() == static_cast<std::byte*>(ptr)) {
      const Region& r = (*it)->region;
      if (r.mc_range_programmed)
        system_.controller().clear_range(r.phys_base);
      pages_.free_range(r.phys_base, r.frames);
      allocations_.erase(it);
      return;
    }
  }
  ABFTECC_REQUIRE(!"free_ecc of unknown pointer");
}

bool Os::assign_ecc(void* ptr, ecc::Scheme scheme) {
  for (auto& alloc : allocations_) {
    if (alloc->storage.get() == static_cast<std::byte*>(ptr)) {
      Region& r = alloc->region;
      pages_.set_ecc_type(r.phys_base, r.frames, scheme);
      if (r.mc_range_programmed &&
          !system_.controller().reassign_range(r.phys_base, scheme))
        return false;
      r.scheme = scheme;
      return true;
    }
  }
  return false;
}

const Region* Os::region_of(const void* p) const {
  const auto* b = static_cast<const std::byte*>(p);
  for (const auto& alloc : allocations_) {
    const Region& r = alloc->region;
    if (b >= r.host_base && b < r.host_base + r.size) return &r;
  }
  return nullptr;
}

const Os::Translation* Os::translate_miss(const void* p) {
  const Region* r = region_of(p);
  if (r == nullptr) return nullptr;
  Translation& t = slots_[next_slot_];
  next_slot_ ^= 1;
  t.begin = reinterpret_cast<std::uintptr_t>(r->host_base);
  t.end = t.begin + r->size;
  t.phys_base = r->phys_base;
  t.abft = r->abft_protected;
  return &t;
}

void Os::layout_changing() {
  system_.settle();
  slots_ = {};
}

const Region* Os::region_of_phys(std::uint64_t phys) const {
  for (const auto& alloc : allocations_) {
    const Region& r = alloc->region;
    if (phys >= r.phys_base && phys < r.phys_base + r.size) return &r;
  }
  return nullptr;
}

std::optional<std::uint64_t> Os::virt_to_phys(const void* p) const {
  const Region* r = region_of(p);
  if (r == nullptr) return std::nullopt;
  return r->phys_base + static_cast<std::uint64_t>(
                            static_cast<const std::byte*>(p) - r->host_base);
}

std::optional<const void*> Os::phys_to_virt(std::uint64_t phys) const {
  const Region* r = region_of_phys(phys);
  if (r == nullptr) return std::nullopt;
  return r->host_base + (phys - r->phys_base);
}

std::optional<std::byte*> Os::phys_to_host(std::uint64_t phys) {
  for (auto& alloc : allocations_) {
    Region& r = alloc->region;
    if (phys >= r.phys_base && phys < r.phys_base + r.size)
      return alloc->storage.get() + (phys - r.phys_base);
  }
  return std::nullopt;
}

bool Os::is_abft_protected_phys(std::uint64_t phys) const {
  const Region* r = region_of_phys(phys);
  return r != nullptr && r->abft_protected;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> Os::abft_phys_ranges()
    const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& a : allocations_) {
    const Region& r = a->region;
    if (r.abft_protected) out.emplace_back(r.phys_base, r.phys_base + r.size);
  }
  return out;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> Os::all_phys_ranges()
    const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& a : allocations_) {
    const Region& r = a->region;
    out.emplace_back(r.phys_base, r.phys_base + r.size);
  }
  return out;
}

bool Os::retire_and_migrate(const void* vaddr) {
  // Locate the owning allocation.
  Allocation* owner = nullptr;
  for (auto& alloc : allocations_) {
    const Region& r = alloc->region;
    const auto* b = static_cast<const std::byte*>(vaddr);
    if (b >= r.host_base && b < r.host_base + r.size) {
      owner = alloc.get();
      break;
    }
  }
  if (owner == nullptr) return false;
  layout_changing();
  Region& r = owner->region;
  const std::uint64_t page = pages_.page_bytes();
  const auto bad_phys =
      r.phys_base + static_cast<std::uint64_t>(
                        static_cast<const std::byte*>(vaddr) - r.host_base);

  // Fresh frames first, so a failed allocation leaves everything intact.
  const auto new_base = pages_.allocate_contiguous(r.frames, r.scheme);
  if (!new_base.has_value()) return false;

  // Charge the copy traffic: stream the allocation out of the old frames
  // and into the new ones (the data itself lives in host storage).
  for (std::uint64_t off = 0; off < r.frames * page; off += 64) {
    system_.access(r.phys_base + off, memsim::AccessKind::kRead);
    system_.access(*new_base + off, memsim::AccessKind::kWrite);
  }

  // Reprogram the MC range, retire the bad frame, release the others.
  if (r.mc_range_programmed) {
    system_.controller().clear_range(r.phys_base);
    system_.controller().set_range(
        {*new_base, *new_base + r.frames * page, r.scheme});
  }
  pages_.retire_frame(bad_phys);
  frame_fault_counts_.erase(bad_phys / page);
  pages_.free_range(r.phys_base, r.frames);
  r.phys_base = *new_base;
  ++migrations_;
  obs::default_registry().counter("os.migrations").add();
  obs::default_tracer().instant(obs::EventKind::kPageRetired,
                                system_.stats().cpu_cycles, bad_phys);
  return true;
}

void Os::handle_ecc_interrupt(const memsim::ErrorRecord& rec) {
  auto& registry = obs::default_registry();
  auto& tracer = obs::default_tracer();
  registry.counter("os.ecc_interrupts").add();
  tracer.instant(obs::EventKind::kEccInterrupt, rec.cycle, rec.phys_addr);
  obs::default_lineage().line_event(rec.phys_addr,
                                    obs::LineageStage::kEccInterrupt,
                                    rec.cycle);
  // Read the memory-mapped registers (rec carries their content), derive
  // the physical address from the fault site, and route.
  Allocation* owner = nullptr;
  for (auto& alloc : allocations_) {
    const Region& reg = alloc->region;
    if (rec.phys_addr >= reg.phys_base &&
        rec.phys_addr < reg.phys_base + reg.size) {
      owner = alloc.get();
      break;
    }
  }
  if (owner != nullptr) note_region_uncorrectable(*owner, rec.cycle);
  const Region* r = owner != nullptr ? &owner->region : nullptr;
  if (r == nullptr || !r->abft_protected) {
    // Not covered by ABFT. Offer the error to the recovery ladder first;
    // only when no handler absorbs it fall back to the conservative
    // strategy of existing systems -- panic (application-level restart).
    if (escalation_handler_) {
      ExposedError e;
      e.phys_addr = rec.phys_addr;
      e.site = rec.site;
      e.scheme = rec.scheme;
      e.cycle = rec.cycle;
      if (r != nullptr) {
        e.vaddr = r->host_base + (rec.phys_addr - r->phys_base);
        e.region_name = r->name;
        e.region_base = r->host_base;
        e.region_size = r->size;
      }
      if (escalation_handler_(e)) {
        ++escalations_;
        registry.counter("os.escalations").add();
        tracer.instant(obs::EventKind::kEscalated, rec.cycle, rec.phys_addr);
        obs::default_lineage().line_event(rec.phys_addr,
                                          obs::LineageStage::kEscalated,
                                          rec.cycle);
        return;
      }
    }
    ++panics_;
    registry.counter("os.panics").add();
    tracer.instant(obs::EventKind::kPanic, rec.cycle, rec.phys_addr);
    obs::default_lineage().line_event(rec.phys_addr,
                                      obs::LineageStage::kPanic, rec.cycle);
    return;
  }
  registry.counter("os.errors_exposed").add();
  tracer.instant(obs::EventKind::kErrorExposed, rec.cycle, rec.phys_addr);
  ExposedError e;
  e.vaddr = r->host_base + (rec.phys_addr - r->phys_base);
  e.phys_addr = rec.phys_addr;
  e.site = rec.site;
  e.scheme = rec.scheme;
  e.cycle = rec.cycle;
  e.region_name = r->name;
  const void* vaddr = e.vaddr;
  push_exposed(std::move(e));

  // Hard-fault heuristic: a frame accumulating uncorrectable errors is
  // pulled out of service and its allocation migrated to spare frames.
  if (auto_retire_threshold_ > 0) {
    const std::uint64_t frame = rec.phys_addr / pages_.page_bytes();
    if (++frame_fault_counts_[frame] >= auto_retire_threshold_)
      retire_and_migrate(vaddr);
  }
}

void Os::set_exposed_log_capacity(std::size_t cap) {
  ABFTECC_REQUIRE(cap > 0);
  exposed_capacity_ = cap;
  while (exposed_.size() > exposed_capacity_) {
    obs::default_lineage().line_event(exposed_.back().phys_addr,
                                      obs::LineageStage::kLogDropped,
                                      exposed_.back().cycle);
    exposed_.pop_back();
    ++exposed_dropped_;
    obs::default_registry().counter("os.exposed_dropped").add();
  }
}

void Os::push_exposed(ExposedError e) {
  if (exposed_.size() >= exposed_capacity_) {
    // Log full (fault storm): fold into an existing entry for the same
    // cache line if there is one -- the location information ABFT needs is
    // identical -- otherwise drop and count.
    const std::uint64_t line = e.phys_addr / 64;
    for (auto it = exposed_.rbegin(); it != exposed_.rend(); ++it) {
      if (it->phys_addr / 64 == line) {
        ++it->repeats;
        it->cycle = e.cycle;
        obs::default_lineage().line_event(e.phys_addr,
                                          obs::LineageStage::kExposed,
                                          e.cycle, it->repeats);
        return;
      }
    }
    ++exposed_dropped_;
    obs::default_registry().counter("os.exposed_dropped").add();
    obs::default_lineage().line_event(e.phys_addr,
                                      obs::LineageStage::kLogDropped,
                                      e.cycle);
    return;
  }
  obs::default_lineage().line_event(e.phys_addr, obs::LineageStage::kExposed,
                                    e.cycle);
  exposed_.push_back(std::move(e));
}

void Os::note_region_uncorrectable(Allocation& alloc, Cycles cycle) {
  ++alloc.uncorrectable_count;
  if (repromote_threshold_ == 0 ||
      alloc.uncorrectable_count < repromote_threshold_)
    return;
  Region& r = alloc.region;
  // Re-promotion is meaningful only for regions holding a relaxed scheme
  // in a programmed MC range; everything else already has the node's
  // default protection.
  if (r.scheme == ecc::Scheme::kChipkill || !r.mc_range_programmed) return;
  if (!assign_ecc(alloc.storage.get(), ecc::Scheme::kChipkill)) return;
  alloc.uncorrectable_count = 0;
  ++repromotions_;
  obs::default_registry().counter("os.ecc_repromotions").add();
  obs::default_tracer().instant(obs::EventKind::kEccRepromoted, cycle,
                                r.phys_base);
}

std::vector<ExposedError> Os::drain_exposed_errors() {
  std::vector<ExposedError> out(exposed_.begin(), exposed_.end());
  exposed_.clear();
  return out;
}

}  // namespace abftecc::os

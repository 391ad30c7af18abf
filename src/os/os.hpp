// System-software layer (Section 3.2.1): ECC control APIs, virtual/physical
// translation, ECC-error interrupt handling, and sysfs-style error exposure.
//
// "Virtual addresses" are the host pointers the application actually uses;
// the Os maps each registered allocation onto physically-contiguous
// simulated frames and programs the memory controller's ECC registers for
// relaxed-ECC ranges. The MC's uncorrectable-error interrupt lands in
// handle_ecc_interrupt(), which reproduces the paper's flow: read the
// memory-mapped error registers, decide whether the corrupted data is
// ABFT-protected, and either expose the virtual address to the runtime or
// go to panic mode.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ecc/scheme.hpp"
#include "memsim/system.hpp"
#include "os/page_allocator.hpp"

namespace abftecc::os {

/// One entry of the kernel->user shared error log ("via sysfs in linux").
struct ExposedError {
  const void* vaddr = nullptr;      ///< corrupted virtual address
  std::uint64_t phys_addr = 0;
  memsim::FaultSite site;
  ecc::Scheme scheme = ecc::Scheme::kNone;
  Cycles cycle = 0;
  std::string region_name;
  /// Host span of the owning allocation (page-granular, so it can extend
  /// past the program-visible bytes); null/0 when the fault hit no
  /// registered region. The recovery ladder uses it to recognize faults
  /// in the slack of a checkpoint-covered allocation.
  const void* region_base = nullptr;
  std::size_t region_size = 0;
  /// Errors folded into this entry (same cache line) while the log was at
  /// capacity; 1 for a normally appended entry.
  unsigned repeats = 1;
};

/// A registered allocation: host (virtual) range -> physical range.
struct Region {
  const std::byte* host_base = nullptr;
  std::size_t size = 0;
  std::uint64_t phys_base = 0;
  std::uint64_t frames = 0;
  ecc::Scheme scheme = ecc::Scheme::kChipkill;
  bool abft_protected = false;
  bool mc_range_programmed = false;
  std::string name;
};

class Os {
 public:
  explicit Os(memsim::MemorySystem& system);
  ~Os();

  Os(const Os&) = delete;
  Os& operator=(const Os&) = delete;

  // --- ECC control APIs (paper Section 3.2.1) -----------------------------

  /// void *malloc_ecc(size_t n, int ecc_type): contiguous physical pages
  /// with `scheme` set in the MC's ECC registers. `abft_protected` marks
  /// the region as covered by ABFT for interrupt routing and Table 4
  /// classification. Returns nullptr when frames or MC registers run out.
  void* malloc_ecc(std::size_t n, ecc::Scheme scheme,
                   std::string name = {}, bool abft_protected = true);

  /// void free_ecc(void *ptr): release memory, frames, and the MC range.
  void free_ecc(void* ptr);

  /// void assign_ecc(void *ptr, int ecc_type): retarget the ECC scheme of a
  /// live malloc_ecc allocation (dynamic refinement).
  bool assign_ecc(void* ptr, ecc::Scheme scheme);

  /// Plain allocation under the node's default (strong) scheme; no MC ECC
  /// register is consumed. Used for every structure ABFT does not cover.
  void* malloc_plain(std::size_t n, std::string name = {});

  // --- translation ---------------------------------------------------------

  [[nodiscard]] std::optional<std::uint64_t> virt_to_phys(const void* p) const;
  [[nodiscard]] std::optional<const void*> phys_to_virt(
      std::uint64_t phys) const;
  /// Writable host pointer for a physical address (fault-injection path).
  [[nodiscard]] std::optional<std::byte*> phys_to_host(std::uint64_t phys);
  [[nodiscard]] bool is_abft_protected_phys(std::uint64_t phys) const;
  [[nodiscard]] const Region* region_of(const void* p) const;

  /// Host-to-physical translation of one region, as the tap uses it.
  struct Translation {
    std::uintptr_t begin = 0, end = 0;  ///< host range [begin, end)
    std::uint64_t phys_base = 0;
    bool abft = false;
  };
  /// Translation of the region holding `p`, or null if no region does. Two
  /// slots keep the last two regions looked up, so a loop alternating two
  /// operands skips region_of's scan; a miss refills them round-robin.
  /// Freeing or migrating a region drops both slots. The pointer is valid
  /// until the next call or layout change.
  [[nodiscard]] const Translation* translate(const void* p) {
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    for (const Translation& t : slots_)
      if (a >= t.begin && a < t.end) return &t;
    return translate_miss(p);
  }
  [[nodiscard]] const Region* region_of_phys(std::uint64_t phys) const;

  /// Physical [begin, end) ranges of the live ABFT-protected allocations.
  /// Fault campaigns sample injection sites uniformly over these bytes.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  abft_phys_ranges() const;

  /// Physical ranges of ALL live allocations (ABFT-covered or not); fault
  /// storms sample over these so uncovered structures get hit too.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  all_phys_ranges() const;

  // --- interrupt handling & error exposure ---------------------------------

  /// Installed into the MC by the constructor; public so tests can deliver
  /// synthetic interrupts.
  void handle_ecc_interrupt(const memsim::ErrorRecord& rec);

  /// Drain the shared error log (ABFT's simplified verification reads this).
  [[nodiscard]] bool has_exposed_errors() const { return !exposed_.empty(); }
  std::vector<ExposedError> drain_exposed_errors();

  // --- fault-storm hardening -----------------------------------------------

  /// Bound the shared error log (a fixed-size kernel buffer in the real
  /// system; an unbounded deque would let a fault storm exhaust memory).
  /// At capacity a new error first tries to coalesce into an existing
  /// entry for the same cache line (bumping its `repeats`); otherwise it
  /// is dropped and counted in exposed_dropped().
  void set_exposed_log_capacity(std::size_t cap);
  [[nodiscard]] std::size_t exposed_log_capacity() const {
    return exposed_capacity_;
  }
  [[nodiscard]] std::uint64_t exposed_dropped() const {
    return exposed_dropped_;
  }

  /// Escalation hook consulted before panic: an uncorrectable error
  /// OUTSIDE ABFT coverage is offered to the recovery ladder first. A
  /// handler returning true absorbs the error (counted in escalations(),
  /// no panic); false or no handler keeps the historical panic.
  void set_escalation_handler(std::function<bool(const ExposedError&)> h) {
    escalation_handler_ = std::move(h);
  }
  [[nodiscard]] std::uint64_t escalations() const { return escalations_; }

  /// ECC re-promotion: a region accumulating this many uncorrectable
  /// errors is reassigned to chipkill via assign_ecc (the dynamic-ECC loop
  /// run backwards -- relaxed protection was a bad bet for that region).
  /// 0 disables (default).
  void set_repromote_threshold(unsigned n) { repromote_threshold_ = n; }
  [[nodiscard]] std::uint64_t repromotions() const { return repromotions_; }

  // --- page retirement & data migration (Section 3.1) ---------------------

  /// Retire the frame backing `vaddr` and migrate its whole allocation to
  /// fresh contiguous frames (hard-fault response: "invoke OS to remap
  /// data to the spare page frames"). The virtual address stays valid; the
  /// physical mapping and the MC's ECC range move. The copy traffic is
  /// charged to the memory system. Returns false if no spare contiguous
  /// run exists.
  bool retire_and_migrate(const void* vaddr);

  /// Frames whose uncorrectable-error count reaches this threshold are
  /// retired (with migration) automatically from the interrupt handler;
  /// 0 disables the automatic path (default).
  void set_auto_retire_threshold(unsigned n) { auto_retire_threshold_ = n; }

  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }

  /// Panic mode: an uncorrectable error outside ABFT protection.
  [[nodiscard]] std::uint64_t panic_count() const { return panics_; }
  [[nodiscard]] bool panicked() const { return panics_ > 0; }
  void clear_panic() { panics_ = 0; }

  [[nodiscard]] PageAllocator& pages() { return pages_; }
  [[nodiscard]] memsim::MemorySystem& system() { return system_; }

 private:
  struct Allocation;
  void* allocate(std::size_t n, ecc::Scheme scheme, std::string name,
                 bool abft_protected, bool program_mc);
  void push_exposed(ExposedError e);
  void note_region_uncorrectable(Allocation& alloc, Cycles cycle);
  const Translation* translate_miss(const void* p);
  /// A region is about to move or go away: simulate the references the
  /// memory system deferred under the old layout and forget translations.
  void layout_changing();

  memsim::MemorySystem& system_;
  PageAllocator pages_;
  std::vector<std::unique_ptr<Allocation>> allocations_;
  std::deque<ExposedError> exposed_;
  std::size_t exposed_capacity_ = 1024;
  std::uint64_t exposed_dropped_ = 0;
  std::function<bool(const ExposedError&)> escalation_handler_;
  std::uint64_t escalations_ = 0;
  unsigned repromote_threshold_ = 0;
  std::uint64_t repromotions_ = 0;
  std::uint64_t panics_ = 0;
  unsigned auto_retire_threshold_ = 0;
  std::uint64_t migrations_ = 0;
  std::unordered_map<std::uint64_t, unsigned> frame_fault_counts_;
  std::array<Translation, 2> slots_{};
  unsigned next_slot_ = 0;
};

}  // namespace abftecc::os

// Physical page-frame allocator with per-page ECC type.
//
// malloc_ecc requires contiguous physical pages (Section 3.2.1) so one MC
// ECC register pair can describe the whole allocation; the ECC type is also
// recorded in the page structure so paging preserves protection.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ecc/scheme.hpp"

namespace abftecc::os {

/// Decoded state of one frame (PageAllocator stores it packed in a byte).
struct PageFrame {
  bool in_use = false;
  bool retired = false;  ///< hard-fault frame, never allocated again
  ecc::Scheme ecc_type = ecc::Scheme::kChipkill;
};

class PageAllocator {
 public:
  PageAllocator(std::uint64_t capacity_bytes, std::uint64_t page_bytes);

  /// Allocate `count` physically-contiguous frames; returns the physical
  /// base address, or nullopt when no run is free (first-fit).
  std::optional<std::uint64_t> allocate_contiguous(std::uint64_t count,
                                                   ecc::Scheme ecc_type);

  /// Free `count` frames starting at `phys_base`.
  void free_range(std::uint64_t phys_base, std::uint64_t count);

  /// Update the recorded ECC type of a frame range (assign_ecc path).
  void set_ecc_type(std::uint64_t phys_base, std::uint64_t count,
                    ecc::Scheme ecc_type);

  /// Permanently retire the frame containing `phys_addr` (memory page
  /// retire, Section 3.1): it is freed if in use and never handed out
  /// again.
  void retire_frame(std::uint64_t phys_addr);

  [[nodiscard]] PageFrame frame_at(std::uint64_t phys_addr) const;
  [[nodiscard]] std::uint64_t page_bytes() const { return page_bytes_; }
  [[nodiscard]] std::uint64_t total_frames() const { return frames_.size(); }
  [[nodiscard]] std::uint64_t frames_in_use() const { return in_use_; }
  [[nodiscard]] std::uint64_t frames_retired() const { return retired_; }

 private:
  std::uint64_t page_bytes_;
  /// One byte per frame, since every Session keeps a table of all of
  /// them: bit 0 in use, bit 1 retired, bits 2-3 the ECC scheme.
  std::vector<std::uint8_t> frames_;
  std::uint64_t in_use_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t search_hint_ = 0;
};

}  // namespace abftecc::os

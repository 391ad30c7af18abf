#include "os/page_allocator.hpp"

#include "common/error.hpp"

namespace abftecc::os {

namespace {

constexpr std::uint8_t kInUse = 1;
constexpr std::uint8_t kRetired = 2;
constexpr unsigned kEccShift = 2;

constexpr std::uint8_t ecc_bits(ecc::Scheme s) {
  return static_cast<std::uint8_t>(static_cast<unsigned>(s) << kEccShift);
}

}  // namespace

PageAllocator::PageAllocator(std::uint64_t capacity_bytes,
                             std::uint64_t page_bytes)
    : page_bytes_(page_bytes) {
  ABFTECC_REQUIRE(page_bytes > 0 && capacity_bytes % page_bytes == 0);
  frames_.assign(capacity_bytes / page_bytes,
                 ecc_bits(PageFrame{}.ecc_type));
}

std::optional<std::uint64_t> PageAllocator::allocate_contiguous(
    std::uint64_t count, ecc::Scheme ecc_type) {
  ABFTECC_REQUIRE(count > 0);
  if (count > frames_.size()) return std::nullopt;
  // First-fit with a rotating hint; two passes cover the wrap.
  for (int pass = 0; pass < 2; ++pass) {
    const std::uint64_t begin = pass == 0 ? search_hint_ : 0;
    const std::uint64_t end = pass == 0 ? frames_.size() : search_hint_;
    std::uint64_t run = 0;
    for (std::uint64_t i = begin; i + 1 <= end; ++i) {
      run = (frames_[i] & (kInUse | kRetired)) != 0 ? 0 : run + 1;
      if (run == count) {
        const std::uint64_t first = i + 1 - count;
        for (std::uint64_t f = first; f <= i; ++f)
          frames_[f] = kInUse | ecc_bits(ecc_type);
        in_use_ += count;
        search_hint_ = (i + 1) % frames_.size();
        return first * page_bytes_;
      }
    }
  }
  return std::nullopt;
}

void PageAllocator::free_range(std::uint64_t phys_base, std::uint64_t count) {
  ABFTECC_REQUIRE(phys_base % page_bytes_ == 0);
  const std::uint64_t first = phys_base / page_bytes_;
  ABFTECC_REQUIRE(first + count <= frames_.size());
  for (std::uint64_t f = first; f < first + count; ++f) {
    if ((frames_[f] & kRetired) != 0) continue;  // pulled out of service
    ABFTECC_REQUIRE((frames_[f] & kInUse) != 0);
    frames_[f] &= ~kInUse;
    --in_use_;
  }
}

void PageAllocator::set_ecc_type(std::uint64_t phys_base, std::uint64_t count,
                                 ecc::Scheme ecc_type) {
  const std::uint64_t first = phys_base / page_bytes_;
  ABFTECC_REQUIRE(first + count <= frames_.size());
  for (std::uint64_t f = first; f < first + count; ++f) {
    ABFTECC_REQUIRE((frames_[f] & kInUse) != 0);
    frames_[f] = (frames_[f] & (kInUse | kRetired)) | ecc_bits(ecc_type);
  }
}

void PageAllocator::retire_frame(std::uint64_t phys_addr) {
  const std::uint64_t f = phys_addr / page_bytes_;
  ABFTECC_REQUIRE(f < frames_.size());
  if ((frames_[f] & kRetired) != 0) return;
  if ((frames_[f] & kInUse) != 0) {
    frames_[f] &= ~kInUse;
    --in_use_;
  }
  frames_[f] |= kRetired;
  ++retired_;
}

PageFrame PageAllocator::frame_at(std::uint64_t phys_addr) const {
  const std::uint64_t f = phys_addr / page_bytes_;
  ABFTECC_REQUIRE(f < frames_.size());
  const std::uint8_t b = frames_[f];
  return {(b & kInUse) != 0, (b & kRetired) != 0,
          static_cast<ecc::Scheme>(b >> kEccShift)};
}

}  // namespace abftecc::os

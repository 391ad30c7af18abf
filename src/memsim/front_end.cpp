#include "memsim/front_end.hpp"

#include <algorithm>
#include <bit>
#include <iterator>

#include "common/error.hpp"

namespace abftecc::memsim {

namespace {

using Stream = std::deque<std::uint8_t>;

void put(Stream& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get(const Stream& in, Stream::const_iterator& pos) {
  std::uint64_t v = 0;
  for (unsigned shift = 0;; shift += 7) {
    ABFTECC_REQUIRE(pos != in.end() && shift < 64);
    const std::uint8_t b = *pos++;
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

}  // namespace

void FrontEndRecord::begin(const SystemConfig& cfg) {
  *this = FrontEndRecord{};
  l1_config_ = cfg.l1;
  l2_config_ = cfg.l2;
  l2_latency_ = cfg.l2_latency_cycles;
  line_shift_ = static_cast<unsigned>(
      std::countr_zero(std::min(cfg.l1.line_bytes, cfg.l2.line_bytes)));
}

bool FrontEndRecord::matches(const SystemConfig& cfg) const {
  return cfg.l1 == l1_config_ && cfg.l2 == l2_config_ &&
         cfg.l2_latency_cycles == l2_latency_;
}

void FrontEndRecord::l1_miss(std::uint64_t access) {
  ABFTECC_REQUIRE(access >= last_miss_);
  flush_miss();
  pending_ = true;
  pending_gap_ = access - last_miss_;
  last_miss_ = access + 1;
}

void FrontEndRecord::straddle(std::uint64_t access) {
  ABFTECC_REQUIRE(access >= last_straddle_);
  put(straddles_, access - last_straddle_);
  last_straddle_ = access;
  ++splits_;
}

void FrontEndRecord::dram(std::uint64_t line_addr, bool is_write,
                          bool blocking) {
  // Every DRAM request follows an L1 miss, at most four per miss.
  ABFTECC_REQUIRE(pending_ && nrequests_ < std::size(requests_));
  const std::uint64_t line = line_addr >> line_shift_;
  std::uint64_t& last = last_line_[is_write];
  requests_[nrequests_++] =
      zigzag(static_cast<std::int64_t>(line - last)) << 3 |
      std::uint64_t{is_write} << 1 | std::uint64_t{blocking};
  last = line;
}

void FrontEndRecord::flush_miss() {
  if (!pending_) return;
  put(misses_, pending_gap_ << 1 | (nrequests_ > 0 ? 1 : 0));
  for (unsigned i = 0; i < nrequests_; ++i)
    put(misses_, requests_[i] | (i + 1 < nrequests_ ? 4 : 0));
  pending_ = false;
  nrequests_ = 0;
}

void FrontEndRecord::seal() { flush_miss(); }

FrontEndCursor::FrontEndCursor(const FrontEndRecord& rec)
    : rec_(rec),
      miss_pos_(rec.misses_.begin()),
      straddle_pos_(rec.straddles_.begin()) {
  next_miss();
  next_straddle();
  at_ = std::min(miss_at_, straddle_at_);
}

void FrontEndCursor::next_miss() {
  if (miss_pos_ == rec_.misses_.end()) {
    miss_at_ = kEnd;
    return;
  }
  const std::uint64_t base =
      miss_pos_ == rec_.misses_.begin() ? 0 : miss_at_ + 1;
  const std::uint64_t v = get(rec_.misses_, miss_pos_);
  miss_at_ = base + (v >> 1);
  requests_ = (v & 1) != 0;
}

void FrontEndCursor::next_straddle() {
  if (straddle_pos_ == rec_.straddles_.end()) {
    straddle_at_ = kEnd;
    return;
  }
  const std::uint64_t base =
      straddle_pos_ == rec_.straddles_.begin() ? 0 : straddle_at_;
  straddle_at_ = base + get(rec_.straddles_, straddle_pos_);
}

void FrontEndCursor::advance() {
  if (straddle()) {
    next_straddle();
  } else {
    ABFTECC_REQUIRE(at_ != kEnd && !requests_);
    next_miss();
  }
  at_ = std::min(miss_at_, straddle_at_);
}

bool FrontEndCursor::next_request(DramRequest& out) {
  if (!requests_) return false;
  const std::uint64_t v = get(rec_.misses_, miss_pos_);
  out.is_write = (v & 2) != 0;
  out.blocking = (v & 1) != 0;
  requests_ = (v & 4) != 0;
  std::uint64_t& last = last_line_[out.is_write];
  last += static_cast<std::uint64_t>(unzigzag(v >> 3));
  out.line_addr = last << rec_.line_shift_;
  return true;
}

}  // namespace abftecc::memsim

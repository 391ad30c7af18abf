// Reference-stream capture and per-layer replay of the memory simulator.
//
// The traced benchmark executable is linked with
// --wrap=<MemorySystem::access>, so every simulated reference of a real
// sweep cell or campaign trial passes through a wrapper here that can copy
// a window of it into a StreamCapture. Nothing in src/ is instrumented.
// The captured window is then replayed, with host time measured per layer,
// through the public memsim classes: MemorySystem::access, Cache::access
// (L1 on every reference, L2 on the L1-miss stream), AddressMap::decompose
// + DramSystem::issue (L2-miss stream), MemoryController::scheme_for, and
// sim::TapContext::issue for the address-translation layer above memsim.
#pragma once

#include <cstdint>
#include <vector>

namespace abftecc::sim {
class Session;
}

namespace perfbench {

/// One window of a thread's simulated reference stream.
struct StreamCapture {
  std::uint64_t skip = 0;   ///< references to let pass before the window
  std::uint64_t limit = 0;  ///< window length
  std::uint64_t seen = 0;   ///< references observed in total
  std::vector<std::uint64_t> refs;  ///< phys << 2 | AccessKind
};

/// Route this thread's simulated references into `c` until capture_end().
/// Only the traced executable sees them; in the other, `c` stays empty.
void capture_begin(StreamCapture& c);
void capture_end();

/// Host seconds and work counts of one replay; add several with +=.
struct ReplayCost {
  double refs = 0, same_line = 0;
  double access_s = 0;          ///< MemorySystem::access, called directly
  double wrapped_access_s = 0;  ///< ... through the capture wrapper
  double tap_s = 0;             ///< TapContext::issue (translation + access
                                ///< through the wrapper)
  double l1_s = 0, l1_refs = 0;
  double l2_s = 0, l2_refs = 0;
  double dram_s = 0, dram_refs = 0;
  double mc_s = 0, mc_calls = 0;

  ReplayCost& operator+=(const ReplayCost& o);
};

/// Replay `c` against the memory layout of `layout`: its SystemConfig,
/// the ECC ranges its memory controller holds, and its Os regions (used to
/// turn physical addresses back into host pointers for TapContext). Each
/// layer starts cold.
ReplayCost replay(const StreamCapture& c, abftecc::sim::Session& layout);

}  // namespace perfbench

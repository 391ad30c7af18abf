// Evaluation platform (paper Figure 4): run one ABFT kernel on the
// simulated memory system under a chosen ECC strategy and collect every
// quantity the paper's figures report.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "abft/common.hpp"
#include "common/backend.hpp"
#include "common/matrix.hpp"
#include "common/units.hpp"
#include "memsim/config.hpp"
#include "memsim/system.hpp"
#include "recovery/types.hpp"
#include "sim/backend.hpp"
#include "sim/strategy.hpp"

namespace abftecc::abft {
class Runtime;
}
namespace abftecc::fault {
class Injector;
}
namespace abftecc::obs {
class PhaseProfiler;
class Tracer;
}
namespace abftecc::recovery {
class RecoveryManager;
}

namespace abftecc::sim {

enum class Kernel { kDgemm, kCholesky, kCg, kHpl };

constexpr std::string_view kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kDgemm: return "FT-DGEMM";
    case Kernel::kCholesky: return "FT-Cholesky";
    case Kernel::kCg: return "FT-CG";
    case Kernel::kHpl: return "FT-HPL";
  }
  return "?";
}

struct PlatformOptions {
  Strategy strategy = Strategy::kWholeChipkill;
  /// Kernel/memory backend (DESIGN.md section 10): kSimulated routes every
  /// reference through memsim (paper-faithful cycles/energy/ECC, the
  /// default); kNative runs the kernels at hardware speed on raw heap
  /// buffers -- FT-DGEMM switches to the fused SIMD kernel, counters
  /// degrade to bulk-touch byte totals, and `seconds` is host wall-clock.
  BackendMode backend = BackendMode::kSimulated;
  // Scaled-down inputs (see DESIGN.md): the paper's 3000/8192 dims shrink
  // together with the caches so footprint/LLC ratios stay comparable.
  std::size_t dgemm_dim = 320;
  std::size_t cholesky_dim = 448;
  std::size_t cg_dim = 640;
  std::size_t cg_iterations = 8;
  std::size_t hpl_dim = 320;
  std::size_t hpl_processes = 4;
  std::size_t verify_period = 4;
  bool hardware_assisted = false;
  bool use_dgms = false;  ///< DGMS baseline instead of ABFT-directed ECC
  std::uint64_t seed = 42;
  unsigned cache_scale = 8;
  memsim::RowBufferPolicy row_policy = memsim::RowBufferPolicy::kOpenPage;
  /// Recovery escalation ladder (DESIGN.md "Recovery escalation ladder").
  /// Off by default: existing experiments keep the historical
  /// kUncorrectable/panic behavior.
  bool ladder = false;
  recovery::RecoveryOptions recovery;
  /// Fault-storm hardening knobs forwarded to the Os.
  std::size_t exposed_log_capacity = 1024;
  unsigned repromote_threshold = 0;  ///< 0 = no ECC re-promotion
  /// Phase-attributed cycle profiling (obs/profile.hpp). When set, the
  /// Session binds this thread's default_profiler() to its MemorySystem
  /// and (re)starts it at construction; run() attributes the kernel's
  /// numerical work to Phase::kCompute and the instrumented ABFT/recovery
  /// scopes to their phases. --chrome-trace turns this on.
  bool profile = false;
};

/// True if runs under `a` and `b` issue the same memory references, so one
/// can replay the other's front end: they may differ only in what acts
/// below the caches (strategy, DGMS, row-buffer policy) or in observers.
bool same_front_end(const PlatformOptions& a, const PlatformOptions& b);

struct RunMetrics {
  Kernel kernel{};
  Strategy strategy{};
  /// Which backend produced this run. Under kNative the sim-derived fields
  /// (sys/l1/l2/dram, energies, refs) stay zero and `seconds` is host
  /// wall-clock instead of simulated time.
  BackendMode backend = BackendMode::kSimulated;
  memsim::SystemStats sys;
  memsim::CacheStats l1, l2;
  memsim::DramStats dram;
  double seconds = 0.0;  ///< simulated wall-clock of the phase
  double ipc = 0.0;
  Picojoules mem_dynamic_pj = 0.0;
  Picojoules mem_standby_pj = 0.0;
  Picojoules processor_pj = 0.0;
  Picojoules mem_dynamic_abft_pj = 0.0;
  Picojoules mem_dynamic_other_pj = 0.0;
  std::uint64_t refs_abft = 0;   ///< tap-level references, Table 4
  std::uint64_t refs_other = 0;
  abft::FtStats ft;
  abft::FtStatus status = abft::FtStatus::kOk;
  /// Bytes of relaxed-ECC (ABFT-protected) and total allocated data.
  std::uint64_t abft_bytes = 0;
  std::uint64_t total_bytes = 0;
  /// Ladder accounting (all zeros when the ladder is off).
  recovery::RecoveryStats recovery;
  recovery::RecoveryVerdict verdict = recovery::RecoveryVerdict::kNotNeeded;
  /// Exposed-error log records the OS dropped because the log was full
  /// (PR-4 storm overload path); lineage analysis uses this to tell
  /// "dropped under storm" from "lost" when chasing orphans.
  std::uint64_t exposed_dropped = 0;

  /// Field for field, doubles bit-exact: simulated runs are deterministic.
  friend bool operator==(const RunMetrics&, const RunMetrics&) = default;

  [[nodiscard]] Picojoules memory_pj() const {
    return mem_dynamic_pj + mem_standby_pj;
  }
  [[nodiscard]] Picojoules system_pj() const {
    return memory_pj() + processor_pj;
  }
};

/// One fully wired simulated node behind a single facade (paper Figure 4):
/// MemorySystem -> Os -> abft::Runtime -> TapContext, with a
/// fault::Injector chained into the DRAM-transfer hook. Construct through
/// Session::Builder; every bench harness, example, and campaign trial goes
/// through here instead of hand-wiring the layers.
///
/// A Session is one node. run() may be called repeatedly (stats
/// accumulate, each run allocates fresh kernel buffers); harnesses that
/// want per-run isolation build a fresh Session per run, which is exactly
/// what the run_kernel() convenience wrapper does.
class Session {
 public:
  class Builder;

  ~Session();
  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;

  // --- wired components ----------------------------------------------------

  [[nodiscard]] memsim::MemorySystem& memory();
  [[nodiscard]] os::Os& os();
  [[nodiscard]] abft::Runtime& runtime();
  /// The recovery ladder's policy engine; null unless options().ladder.
  [[nodiscard]] recovery::RecoveryManager* recovery();
  [[nodiscard]] fault::Injector& injector();
  [[nodiscard]] TapContext& tap_context();
  /// The simulated backend over this node's tap context and memory
  /// system: the entry for hand-driven FT kernels.
  [[nodiscard]] SimBackend& backend();
  /// Instruments this session records into: the thread's defaults, or the
  /// session-private pair under Builder::private_observability().
  [[nodiscard]] obs::Registry& metrics();
  [[nodiscard]] obs::Tracer& tracer();
  /// This thread's phase profiler (started by the Session under
  /// options().profile; stop() it before reading attribution).
  [[nodiscard]] obs::PhaseProfiler& profiler();
  [[nodiscard]] const PlatformOptions& options() const;
  /// Scheme malloc_ecc assigns to ABFT-protected structures here
  /// (spec(strategy).abft_scheme).
  [[nodiscard]] ecc::Scheme abft_scheme() const;

  // --- allocation ----------------------------------------------------------

  /// ABFT-protected allocation under the strategy's relaxed scheme (or an
  /// explicit one); counted in abft_bytes()/total_bytes().
  MatrixView abft_matrix(std::size_t rows, std::size_t cols, const char* name);
  MatrixView abft_matrix(std::size_t rows, std::size_t cols,
                         ecc::Scheme scheme, const char* name);
  /// Plain allocation under the node's default (strong) scheme.
  MatrixView plain_matrix(std::size_t rows, std::size_t cols,
                          const char* name);
  std::span<double> abft_vector(std::size_t n, const char* name);
  std::span<double> abft_vector(std::size_t n, ecc::Scheme scheme,
                                const char* name);
  [[nodiscard]] std::uint64_t abft_bytes() const;
  [[nodiscard]] std::uint64_t total_bytes() const;

  /// Stream a scratch buffer 4x the LLC through the node so dirty kernel
  /// lines are written back to DRAM -- the standard idiom before injecting
  /// DRAM faults that must survive until the next fill.
  void flush_caches();

  // --- running kernels -----------------------------------------------------

  /// Generate the kernel's inputs from options().seed, allocate its ABFT
  /// buffers, and run it to completion on this node.
  RunMetrics run(Kernel kernel);
  /// FT-CG at an explicit dimension/iteration count (scaling studies).
  RunMetrics run_cg(std::size_t dim, std::size_t iterations);
  /// Logical output of the last run(): the row-major result matrix
  /// (FT-DGEMM), factored matrix (FT-Cholesky), or solution vector
  /// (FT-CG/FT-HPL). Fault campaigns compare this against a golden run.
  [[nodiscard]] const std::vector<double>& last_result() const;

 private:
  friend class Builder;
  struct Impl;
  explicit Session(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Builder-style front door: options -> build() -> run(Kernel) -> RunMetrics.
class Session::Builder {
 public:
  Builder() = default;
  explicit Builder(const PlatformOptions& opt) : opt_(opt) {}

  Builder& options(const PlatformOptions& o) {
    opt_ = o;
    return *this;
  }
  Builder& strategy(Strategy s) {
    opt_.strategy = s;
    return *this;
  }
  /// Select the kernel/memory backend (default kSimulated).
  Builder& backend(BackendMode m) {
    opt_.backend = m;
    return *this;
  }
  Builder& seed(std::uint64_t s) {
    opt_.seed = s;
    return *this;
  }
  Builder& verify_period(std::size_t p) {
    opt_.verify_period = p;
    return *this;
  }
  Builder& hardware_assisted(bool on = true) {
    opt_.hardware_assisted = on;
    return *this;
  }
  Builder& use_dgms(bool on = true) {
    opt_.use_dgms = on;
    return *this;
  }
  Builder& cache_scale(unsigned s) {
    opt_.cache_scale = s;
    return *this;
  }
  Builder& row_policy(memsim::RowBufferPolicy p) {
    opt_.row_policy = p;
    return *this;
  }
  /// Enable the recovery escalation ladder (checkpointed rollback, block
  /// recompute, OS escalation instead of panic).
  Builder& ladder(bool on = true) {
    opt_.ladder = on;
    return *this;
  }
  Builder& recovery(const recovery::RecoveryOptions& ro) {
    opt_.recovery = ro;
    return *this;
  }
  Builder& exposed_log_capacity(std::size_t cap) {
    opt_.exposed_log_capacity = cap;
    return *this;
  }
  Builder& repromote_threshold(unsigned n) {
    opt_.repromote_threshold = n;
    return *this;
  }
  /// Extra hooks merged into the node wiring. The injector chains itself
  /// after a fill_hook installed here; shape_override is taken verbatim
  /// unless use_dgms replaces it.
  Builder& hooks(memsim::Hooks h) {
    hooks_ = std::move(h);
    return *this;
  }
  /// Record the front end of this session's one simulated run into `rec`
  /// (memsim/front_end.hpp, DESIGN.md section 6c). The run must be fault
  /// free: no ladder, no ref trigger, no injected fault, and no memory
  /// access outside the kernel's tap (flush_caches, checkpoint traffic).
  Builder& record_front_end(memsim::FrontEndRecord& rec) {
    record_ = &rec;
    return *this;
  }
  /// Replay `rec` as the front end of this session's one simulated run: the
  /// kernel runs live on the exact cycle clock, and only the caches are
  /// replaced by the record. Same preconditions as record_front_end; the
  /// run must also issue exactly the recorded references and end with the
  /// recorded Os layout. Each violation is a ContractViolation.
  Builder& replay_front_end(const memsim::FrontEndRecord& rec) {
    replay_ = &rec;
    return *this;
  }
  /// Give the session its own Registry + Tracer, installed as this
  /// thread's obs defaults for the session's whole lifetime (stacked
  /// sessions on one thread must be destroyed LIFO). Campaign trials use
  /// this so parallel sessions never share instruments.
  Builder& private_observability(bool on = true) {
    private_obs_ = on;
    return *this;
  }

  [[nodiscard]] Session build();

 private:
  PlatformOptions opt_;
  memsim::Hooks hooks_;
  bool private_obs_ = false;
  memsim::FrontEndRecord* record_ = nullptr;
  const memsim::FrontEndRecord* replay_ = nullptr;
};

/// Output destinations requested on a bench binary's command line.
struct CliReport {
  std::string json_path;   ///< --json <path>: schema-stable machine report
  std::string trace_path;  ///< --trace <path>: Chrome trace_event JSON
  /// --chrome-trace <path>: merged timeline (tracer events + profiler
  /// phase spans, Perfetto-loadable). Implies tracing and profiling.
  std::string chrome_trace_path;
  /// --metrics-out <path>: OpenMetrics text exposition of this thread's
  /// default registry at report time (the telemetry plane's textfile
  /// mode; scrape-ready, passes tools/promcheck.py).
  std::string metrics_out_path;
};

/// Record one native-backend run's degraded instrumentation into this
/// thread's default registry, so native runs feed the same metric schema
/// (and telemetry plane) as simulated runs: `native.*` bulk-touch byte
/// counters plus the `abft.*` verify/detect/correct counters sim runs get
/// from the runtime. `counters` must be the DELTA attributable to the run
/// (Session tracks its backend's previous totals; benches with a fresh
/// NativeBackend per run can pass counters() directly).
void record_native_metrics(const NativeBackend::Counters& counters,
                           const abft::FtStats& ft);

/// Parse the common bench CLI flags shared by every experiment binary,
/// applying overrides to `opt` in place. Unknown flags warn and are
/// ignored so older scripts keep working; `--help` prints usage and
/// exits. `--trace` additionally enables the global tracer.
CliReport parse_cli(int argc, char** argv, PlatformOptions& opt);

/// Run `kernel` under `opt` on a fresh simulated node: a thin wrapper over
/// Session::Builder(opt).build().run(kernel).
RunMetrics run_kernel(Kernel kernel, const PlatformOptions& opt);

/// FT-CG at an explicit dimension/iteration count (scaling studies).
RunMetrics run_cg_at_dim(std::size_t dim, std::size_t iterations,
                         const PlatformOptions& opt);

}  // namespace abftecc::sim

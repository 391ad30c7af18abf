#include "sim/platform.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "abft/ft_cg.hpp"
#include "abft/ft_cholesky.hpp"
#include "abft/ft_dgemm.hpp"
#include "abft/ft_dgemm_fused.hpp"
#include "abft/ft_hpl.hpp"
#include "abft/runtime.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "linalg/generate.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "os/os.hpp"
#include "recovery/manager.hpp"
#include "sim/dgms.hpp"

namespace abftecc::sim {

namespace {

void print_usage(const char* prog) {
  std::printf(
      "usage: %s [options]\n"
      "  --json <path>          write a machine-readable report (JSON)\n"
      "  --metrics-out <path>   write an OpenMetrics text exposition of the\n"
      "                         final metric registry (telemetry plane)\n"
      "  --trace <path>         write a Chrome trace_event JSON timeline\n"
      "  --chrome-trace <path>  write a merged Perfetto timeline (tracer\n"
      "                         events + profiler phase spans); enables\n"
      "                         tracing and phase profiling\n"
      "  --trace-capacity <n>   event ring size (default 8192; raise so\n"
      "                         demand misses don't evict rare chain events)\n"
      "  --seed <n>             RNG seed for the generated inputs\n"
      "  --verify-period <n>    ABFT verification period (panels/iterations)\n"
      "  --cache-scale <n>      divide the Table 3 cache sizes by n\n"
      "  --dgemm-dim <n>        FT-DGEMM matrix dimension\n"
      "  --cholesky-dim <n>     FT-Cholesky matrix dimension\n"
      "  --cg-dim <n>           FT-CG system dimension\n"
      "  --cg-iters <n>         FT-CG iteration count\n"
      "  --hpl-dim <n>          FT-HPL matrix dimension\n"
      "  --hpl-procs <n>        FT-HPL simulated process count\n"
      "  --backend <sim|native> kernel/memory backend: sim (instrumented\n"
      "                         memsim, default) or native (hardware speed,\n"
      "                         fused SIMD FT-DGEMM)\n"
      "  --closed-page          use the closed-page row-buffer policy\n"
      "  --hw-assisted          enable hardware-assisted (simplified) verify\n"
      "  --ladder               enable the recovery escalation ladder\n"
      "  --help                 show this message\n",
      prog);
}

void copy_into(MatrixView dst, ConstMatrixView src) {
  ABFTECC_REQUIRE(dst.rows() == src.rows() && dst.cols() == src.cols());
  for (std::size_t j = 0; j < src.cols(); ++j)
    for (std::size_t i = 0; i < src.rows(); ++i) dst(i, j) = src(i, j);
}

abft::FtOptions ft_options(const PlatformOptions& opt) {
  abft::FtOptions fo;
  fo.verify_period = opt.verify_period;
  fo.hardware_assisted = opt.hardware_assisted;
  return fo;
}

}  // namespace

bool same_front_end(const PlatformOptions& a, const PlatformOptions& b) {
  return a.backend == b.backend && a.dgemm_dim == b.dgemm_dim &&
         a.cholesky_dim == b.cholesky_dim && a.cg_dim == b.cg_dim &&
         a.cg_iterations == b.cg_iterations && a.hpl_dim == b.hpl_dim &&
         a.hpl_processes == b.hpl_processes &&
         a.verify_period == b.verify_period &&
         a.hardware_assisted == b.hardware_assisted && a.seed == b.seed &&
         a.cache_scale == b.cache_scale && a.ladder == b.ladder;
}

void record_native_metrics(const NativeBackend::Counters& counters,
                           const abft::FtStats& ft) {
  obs::Registry& reg = obs::default_registry();
  reg.counter("native.touches").add(counters.touches);
  reg.counter("native.bytes_read").add(counters.bytes_read);
  reg.counter("native.bytes_written").add(counters.bytes_written);
  reg.counter("native.faults_injected").add(counters.faults_injected);
  reg.counter("abft.verifications").add(ft.verifications);
  reg.counter("abft.errors_detected").add(ft.errors_detected);
  reg.counter("abft.errors_corrected").add(ft.errors_corrected);
  reg.counter("abft.hw_notifications_used").add(ft.hw_notifications_used);
  reg.gauge("abft.encode_seconds").add(ft.encode_seconds);
  reg.gauge("abft.verify_seconds").add(ft.verify_seconds);
  reg.gauge("abft.correct_seconds").add(ft.correct_seconds);
}

CliReport parse_cli(int argc, char** argv, PlatformOptions& opt) {
  CliReport out;
  auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: missing value for %s\n", argv[0], argv[i]);
      std::exit(2);
    }
    return argv[i + 1];
  };
  auto as_size = [&](int i) {
    return static_cast<std::size_t>(std::strtoull(need_value(i), nullptr, 10));
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--json") == 0) {
      out.json_path = need_value(i), ++i;
    } else if (std::strcmp(a, "--metrics-out") == 0) {
      out.metrics_out_path = need_value(i), ++i;
    } else if (std::strcmp(a, "--trace") == 0) {
      out.trace_path = need_value(i), ++i;
      obs::default_tracer().enable();
    } else if (std::strcmp(a, "--chrome-trace") == 0) {
      out.chrome_trace_path = need_value(i), ++i;
      obs::default_tracer().enable();
      opt.profile = true;
    } else if (std::strcmp(a, "--trace-capacity") == 0) {
      obs::default_tracer().set_capacity(as_size(i)), ++i;
    } else if (std::strcmp(a, "--seed") == 0) {
      opt.seed = std::strtoull(need_value(i), nullptr, 10), ++i;
    } else if (std::strcmp(a, "--verify-period") == 0) {
      opt.verify_period = as_size(i), ++i;
    } else if (std::strcmp(a, "--cache-scale") == 0) {
      opt.cache_scale =
          static_cast<unsigned>(std::strtoul(need_value(i), nullptr, 10)),
      ++i;
    } else if (std::strcmp(a, "--dgemm-dim") == 0) {
      opt.dgemm_dim = as_size(i), ++i;
    } else if (std::strcmp(a, "--cholesky-dim") == 0) {
      opt.cholesky_dim = as_size(i), ++i;
    } else if (std::strcmp(a, "--cg-dim") == 0) {
      opt.cg_dim = as_size(i), ++i;
    } else if (std::strcmp(a, "--cg-iters") == 0) {
      opt.cg_iterations = as_size(i), ++i;
    } else if (std::strcmp(a, "--hpl-dim") == 0) {
      opt.hpl_dim = as_size(i), ++i;
    } else if (std::strcmp(a, "--hpl-procs") == 0) {
      opt.hpl_processes = as_size(i), ++i;
    } else if (std::strcmp(a, "--backend") == 0) {
      const char* v = need_value(i);
      ++i;
      if (std::strcmp(v, "native") == 0) {
        opt.backend = BackendMode::kNative;
      } else if (std::strcmp(v, "sim") == 0) {
        opt.backend = BackendMode::kSimulated;
      } else {
        std::fprintf(stderr, "%s: unknown backend '%s' (want sim|native)\n",
                     argv[0], v);
        std::exit(2);
      }
    } else if (std::strcmp(a, "--closed-page") == 0) {
      opt.row_policy = memsim::RowBufferPolicy::kClosedPage;
    } else if (std::strcmp(a, "--hw-assisted") == 0) {
      opt.hardware_assisted = true;
    } else if (std::strcmp(a, "--ladder") == 0) {
      opt.ladder = true;
    } else if (std::strcmp(a, "--help") == 0) {
      print_usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: ignoring unknown flag '%s'\n", argv[0], a);
    }
  }
  return out;
}

/// The wired node. Member order is load-bearing: the obs scopes precede
/// the MemorySystem so a private registry is already installed when the
/// system caches its instrument references, and the destructor tears the
/// layers down in reverse (Injector and Os unhook themselves while the
/// MemorySystem is still alive) before the scopes restore the thread's
/// previous obs bindings.
struct Session::Impl {
  PlatformOptions opt;
  std::unique_ptr<obs::Registry> own_registry;
  std::unique_ptr<obs::Tracer> own_tracer;
  std::optional<obs::RegistryScope> registry_scope;
  std::optional<obs::TracerScope> tracer_scope;
  memsim::SystemConfig cfg;
  std::shared_ptr<DgmsController> dgms;
  std::unique_ptr<memsim::MemorySystem> sys;
  std::unique_ptr<abftecc::os::Os> osl;
  std::unique_ptr<abft::Runtime> rt;
  std::unique_ptr<recovery::RecoveryManager> rm;
  std::unique_ptr<TapContext> ctx;
  std::optional<SimBackend> be;
  std::unique_ptr<fault::Injector> inj;
  void* flusher = nullptr;  ///< lazily allocated flush_caches() buffer
  std::uint64_t abft_bytes = 0;
  std::uint64_t total_bytes = 0;
  std::vector<double> last_result;
  /// Native-mode backend: region registry + bulk-touch counters. Native
  /// runs allocate raw heap buffers (the simulated allocator's frame
  /// capacity is sized for scaled-down sim inputs, not dim-2048 payloads).
  NativeBackend native;
  /// Backend counter totals at the end of the previous native run, so
  /// collect_native records per-run deltas into the registry.
  NativeBackend::Counters native_seen;

  /// Session builds with a front-end record or replay run once, fault free.
  bool front_end = false;
  bool ran = false;

  Impl(const PlatformOptions& o, memsim::Hooks hooks, bool private_obs,
       memsim::FrontEndRecord* record, const memsim::FrontEndRecord* replay)
      : opt(o) {
    if (private_obs) {
      own_registry = std::make_unique<obs::Registry>();
      own_tracer = std::make_unique<obs::Tracer>();
      registry_scope.emplace(*own_registry);
      tracer_scope.emplace(*own_tracer);
    }
    cfg = memsim::SystemConfig::scaled(opt.cache_scale);
    cfg.row_policy = opt.row_policy;
    if (opt.use_dgms) {
      dgms = std::make_shared<DgmsController>(cfg.page_bytes);
      auto predictor = dgms;
      hooks.shape_override = [predictor](std::uint64_t phys, ecc::Scheme s) {
        return predictor->shape(phys, s);
      };
    }
    sys = std::make_unique<memsim::MemorySystem>(
        cfg, spec(opt.strategy).default_scheme, std::move(hooks));
    osl = std::make_unique<abftecc::os::Os>(*sys);
    rt = std::make_unique<abft::Runtime>(osl.get());
    osl->set_exposed_log_capacity(opt.exposed_log_capacity);
    if (opt.repromote_threshold > 0)
      osl->set_repromote_threshold(opt.repromote_threshold);
    if (opt.ladder) {
      rm = std::make_unique<recovery::RecoveryManager>(opt.recovery,
                                                       osl.get());
      rt->set_recovery(rm.get());
      osl->set_escalation_handler(
          [m = rm.get()](const abftecc::os::ExposedError& e) {
            return m->on_unprotected_error(e.vaddr, e.region_base,
                                           e.region_size);
          });
    }
    ctx = std::make_unique<TapContext>(*osl, *sys);
    be.emplace(*ctx, *sys);
    inj = std::make_unique<fault::Injector>(*sys, *osl);
    if (record != nullptr || replay != nullptr) {
      ABFTECC_REQUIRE(record == nullptr || replay == nullptr);
      ABFTECC_REQUIRE(opt.backend == BackendMode::kSimulated && rm == nullptr);
      front_end = true;
      if (record != nullptr) ctx->record(*record);
      if (replay != nullptr) ctx->replay(*replay);
    }
    if (opt.profile) {
      // Rebind this thread's profiler to the fresh system and restart it:
      // a new MemorySystem's counters begin at zero, so attribution must
      // not straddle sessions.
      auto& prof = obs::default_profiler();
      prof.stop();
      prof.set_sampler([s = sys.get()] { return s->counter_sample(); });
      prof.start();
    }
  }

  ~Impl() {
    if (opt.profile) {
      // Final attribution while the sampled system is still alive; the
      // tree stays readable (Report exports it after the Session dies).
      auto& prof = obs::default_profiler();
      prof.stop();
      prof.set_sampler({});
    }
    // The escalation handler captures rm, which dies before osl.
    if (osl != nullptr) osl->set_escalation_handler(nullptr);
  }

  MatrixView abft_matrix(std::size_t rows, std::size_t cols,
                         ecc::Scheme scheme, const char* name) {
    const std::size_t bytes = rows * cols * sizeof(double);
    void* p = osl->malloc_ecc(bytes, scheme, name, /*abft_protected=*/true);
    ABFTECC_REQUIRE(p != nullptr);
    abft_bytes += bytes;
    total_bytes += bytes;
    return MatrixView(static_cast<double*>(p), rows, cols, rows);
  }

  MatrixView plain_matrix(std::size_t rows, std::size_t cols,
                          const char* name) {
    const std::size_t bytes = rows * cols * sizeof(double);
    void* p = osl->malloc_plain(bytes, name);
    ABFTECC_REQUIRE(p != nullptr);
    total_bytes += bytes;
    return MatrixView(static_cast<double*>(p), rows, cols, rows);
  }

  std::span<double> abft_vector(std::size_t n, ecc::Scheme scheme,
                                const char* name) {
    auto m = abft_matrix(n, 1, scheme, name);
    return {m.data(), n};
  }

  /// A recorded or replayed run must see no fault: none queued before it
  /// starts, none injected while it runs.
  void require_fault_free() const {
    ABFTECC_REQUIRE(inj->pending_lines() == 0 &&
                    inj->stats().injected_flips == 0 &&
                    inj->stats().injected_chip_kills == 0);
  }

  void begin_run() {
    if (!front_end) return;
    ABFTECC_REQUIRE(!ran);
    ran = true;
    require_fault_free();
  }

  RunMetrics collect(Kernel k, const abft::FtStats& ft,
                     abft::FtStatus status) {
    if (front_end) {
      require_fault_free();
      ctx->finish();
    }
    const memsim::FrontEndRecord* replayed = ctx->replayed();
    RunMetrics m;
    m.kernel = k;
    m.strategy = opt.strategy;
    m.sys = sys->stats();
    m.l1 = replayed != nullptr ? replayed->l1 : sys->l1_stats();
    m.l2 = replayed != nullptr ? replayed->l2 : sys->l2_stats();
    m.dram = sys->dram_stats();
    m.seconds = sys->elapsed_seconds();
    m.ipc = m.sys.ipc();
    m.mem_dynamic_pj = sys->memory_dynamic_energy_pj();
    m.mem_standby_pj = sys->memory_standby_energy_pj();
    m.processor_pj = sys->processor_energy_pj();
    m.mem_dynamic_abft_pj = m.sys.dram_dynamic_abft_pj;
    m.mem_dynamic_other_pj = m.sys.dram_dynamic_other_pj;
    m.refs_abft = ctx->refs_abft();
    m.refs_other = ctx->refs_other();
    m.ft = ft;
    m.status = status;
    m.abft_bytes = abft_bytes;
    m.total_bytes = total_bytes;
    if (rm != nullptr) {
      m.recovery = rm->stats();
      m.verdict = rm->verdict();
    }
    m.exposed_dropped = osl->exposed_dropped();
    return m;
  }

  void capture(ConstMatrixView v) {
    last_result.clear();
    last_result.reserve(v.rows() * v.cols());
    for (std::size_t i = 0; i < v.rows(); ++i)
      for (std::size_t j = 0; j < v.cols(); ++j)
        last_result.push_back(v(i, j));
  }

  void capture(std::span<const double> v) {
    last_result.assign(v.begin(), v.end());
  }

  /// Scoped native-backend region registration for one run's buffers.
  struct NativeRegion {
    NativeBackend* be;
    std::size_t id;
    NativeRegion(NativeBackend& b, MatrixView v, const char* name, bool abft)
        : be(&b),
          id(b.register_region(v.data(),
                              v.ld() * v.cols() * sizeof(double), name,
                              abft)) {}
    ~NativeRegion() { be->unregister_region(id); }
    NativeRegion(const NativeRegion&) = delete;
    NativeRegion& operator=(const NativeRegion&) = delete;
  };

  RunMetrics collect_native(Kernel k, const abft::FtStats& ft,
                            abft::FtStatus status, double seconds,
                            std::uint64_t abft_b, std::uint64_t total_b) {
    RunMetrics m;
    m.kernel = k;
    m.strategy = opt.strategy;
    m.backend = BackendMode::kNative;
    m.seconds = seconds;
    m.ft = ft;
    m.status = status;
    m.abft_bytes = abft_b;
    m.total_bytes = total_b;
    abft_bytes += abft_b;
    total_bytes += total_b;
    // Native runs feed the same registry schema as sim runs (telemetry
    // plane): bulk-touch byte counters as per-run deltas, FT counters
    // straight from the kernel's per-run stats.
    const NativeBackend::Counters& now = native.counters();
    NativeBackend::Counters delta;
    delta.touches = now.touches - native_seen.touches;
    delta.bytes_read = now.bytes_read - native_seen.bytes_read;
    delta.bytes_written = now.bytes_written - native_seen.bytes_written;
    delta.faults_injected = now.faults_injected - native_seen.faults_injected;
    native_seen = now;
    record_native_metrics(delta, ft);
    return m;
  }

  RunMetrics run_dgemm_native() {
    const std::size_t n = opt.dgemm_dim;
    Rng rng(opt.seed);
    Matrix a = Matrix::random(n, n, rng);
    Matrix b = Matrix::random(n, n, rng);
    Matrix c(n, n);
    NativeRegion ra(native, a.view(), "dgemm.A", false);
    NativeRegion rbr(native, b.view(), "dgemm.B", false);
    NativeRegion rc(native, c.view(), "dgemm.C", true);
    abft::FtDgemmFused::Options fopt;
    fopt.verify_period = opt.verify_period;
    abft::FtDgemmFused ft(a.view(), b.view(), c.view(), fopt);
    const TickClock wall;
    const std::uint64_t t0 = wall.now();
    const abft::FtStatus st = ft.run(native);
    const double seconds = wall.seconds_since(t0);
    capture(ft.result());
    return collect_native(Kernel::kDgemm, ft.stats(), st, seconds,
                          n * n * sizeof(double),
                          3 * n * n * sizeof(double));
  }

  RunMetrics run_cholesky_native() {
    const std::size_t n = opt.cholesky_dim;
    Rng rng(opt.seed);
    Matrix a = Matrix::random_spd(n, rng);
    Matrix chk(n, 2);
    NativeRegion ra(native, a.view(), "cholesky.A", true);
    NativeRegion rchk(native, chk.view(), "cholesky.checksums", true);
    abft::FtCholesky::Buffers buf{a.view(), chk.view().col(0),
                                  chk.view().col(1)};
    abft::FtCholesky ft(buf, ft_options(opt), /*runtime=*/nullptr);
    const TickClock wall;
    const std::uint64_t t0 = wall.now();
    const abft::FtStatus st = ft.run(native);
    const double seconds = wall.seconds_since(t0);
    capture(ConstMatrixView(a.view()));
    return collect_native(Kernel::kCholesky, ft.stats(), st, seconds,
                          (n * n + 2 * n) * sizeof(double),
                          (n * n + 2 * n) * sizeof(double));
  }

  RunMetrics run_cg_native(std::size_t dim, std::size_t iterations) {
    const std::size_t n = dim;
    Rng rng(opt.seed);
    linalg::LinearSystem lin = linalg::make_spd_system(n, rng);
    Matrix vecs(n, 5), ws(n, 4);
    vecs.view().fill(0.0);
    NativeRegion ra(native, lin.a.view(), "cg.A", true);
    NativeRegion rv(native, vecs.view(), "cg.vectors", true);
    NativeRegion rw(native, ws.view(), "cg.workspace", false);
    abft::FtCg::Buffers buf{vecs.view().col(0), vecs.view().col(1),
                            vecs.view().col(2), vecs.view().col(3),
                            vecs.view().col(4),
                            {ws.view().data(), 4 * n}};
    linalg::CgOptions cg_opt;
    cg_opt.max_iterations = iterations;
    cg_opt.tolerance = 1e-30;  // representative phase: run exactly N iters
    abft::FtCg ft(lin.a.view(), lin.b, buf, cg_opt, ft_options(opt),
                  /*runtime=*/nullptr);
    const TickClock wall;
    const std::uint64_t t0 = wall.now();
    const abft::FtCgResult res = ft.run(native);
    const double seconds = wall.seconds_since(t0);
    const abft::FtStatus st = res.status == abft::FtStatus::kNumericalFailure
                                  ? abft::FtStatus::kOk
                                  : res.status;
    capture(std::span<const double>(vecs.view().col(0).data(), n));
    return collect_native(Kernel::kCg, ft.stats(), st, seconds,
                          (n * n + 6 * n) * sizeof(double),
                          (n * n + 10 * n) * sizeof(double));
  }

  RunMetrics run_hpl_native() {
    const std::size_t n = opt.hpl_dim;
    const std::size_t h = n / opt.hpl_processes;
    Rng rng(opt.seed);
    linalg::LinearSystem lin = linalg::make_general_system(n, rng);
    Matrix ae(n + h, n + 1), uc(h, n + 1);
    NativeRegion rae(native, ae.view(), "hpl.Ae", true);
    NativeRegion ruc(native, uc.view(), "hpl.Uc", true);
    abft::FtHpl::Buffers buf{ae.view(), uc.view()};
    abft::FtHpl ft(native, lin.a.view(), lin.b, opt.hpl_processes, buf,
                   ft_options(opt), /*runtime=*/nullptr);
    const TickClock wall;
    const std::uint64_t t0 = wall.now();
    const abft::FtStatus st = ft.factor(native);
    const double seconds = wall.seconds_since(t0);
    std::vector<double> x(n, 0.0);
    if (st != abft::FtStatus::kUncorrectable) ft.solve(x);
    last_result = std::move(x);
    const std::uint64_t bytes =
        ((n + h) * (n + 1) + h * (n + 1)) * sizeof(double);
    return collect_native(Kernel::kHpl, ft.stats(), st, seconds, bytes,
                          bytes);
  }

  RunMetrics run_dgemm() {
    const ecc::Scheme abft_scheme = spec(opt.strategy).abft_scheme;
    const std::size_t n = opt.dgemm_dim;

    // Inputs are consumed once during encoding and are not ABFT-protected.
    // Each is generated straight into its copy, one host temporary at a
    // time.
    MatrixView a = plain_matrix(n, n, "dgemm.A");
    MatrixView b = plain_matrix(n, n, "dgemm.B");
    {
      Rng rng(opt.seed);
      copy_into(a, Matrix::random(n, n, rng).view());
      copy_into(b, Matrix::random(n, n, rng).view());
    }

    abft::FtDgemm::Buffers buf{abft_matrix(n + 1, n, abft_scheme, "dgemm.Ac"),
                               abft_matrix(n, n + 1, abft_scheme, "dgemm.Br"),
                               abft_matrix(n + 1, n + 1, abft_scheme,
                                           "dgemm.Cf")};
    // Pristine-input checkpoint BEFORE the kernel exists: a fault hitting
    // the plain (non-ABFT) inputs escalates to a rollback demand, and this
    // epoch-0 snapshot is what makes that demand satisfiable.
    recovery::CheckpointStore::RangeId ida = 0, idb = 0;
    if (rm != nullptr) {
      ida = rm->store().track("dgemm.A", a.data(), n * n * sizeof(double));
      idb = rm->store().track("dgemm.B", b.data(), n * n * sizeof(double));
      rm->commit(0);
    }
    abft::FtDgemm ft(ConstMatrixView(a), ConstMatrixView(b), buf,
                     ft_options(opt), rt.get());
    obs::PhaseScope compute(obs::Phase::kCompute);
    const abft::FtStatus st = ft.run(*be);
    if (rm != nullptr) {
      rm->store().untrack(ida);
      rm->store().untrack(idb);
    }
    capture(ft.result());
    return collect(Kernel::kDgemm, ft.stats(), st);
  }

  RunMetrics run_cholesky() {
    const ecc::Scheme abft_scheme = spec(opt.strategy).abft_scheme;
    const std::size_t n = opt.cholesky_dim;
    Rng rng(opt.seed);
    Matrix a_host = Matrix::random_spd(n, rng);

    MatrixView a = abft_matrix(n, n, abft_scheme, "cholesky.A");
    copy_into(a, a_host.view());
    a_host = {};  // copied in: free the host input before the run
    MatrixView chk = abft_matrix(n, 2, abft_scheme, "cholesky.checksums");
    abft::FtCholesky::Buffers buf{a, chk.col(0), chk.col(1)};
    abft::FtCholesky ft(buf, ft_options(opt), rt.get());
    obs::PhaseScope compute(obs::Phase::kCompute);
    const abft::FtStatus st = ft.run(*be);
    capture(ConstMatrixView(a));
    return collect(Kernel::kCholesky, ft.stats(), st);
  }

  RunMetrics run_cg(std::size_t dim, std::size_t iterations) {
    const ecc::Scheme abft_scheme = spec(opt.strategy).abft_scheme;
    const std::size_t n = dim;
    Rng rng(opt.seed);
    linalg::LinearSystem lin = linalg::make_spd_system(n, rng);

    // FT-CG's ABFT region covers the vectors of Section 2.1 plus the static
    // operator matrix, protected by per-column checksums (see DESIGN.md).
    MatrixView a = abft_matrix(n, n, abft_scheme, "cg.A");
    copy_into(a, lin.a.view());
    MatrixView vecs = abft_matrix(n, 5, abft_scheme, "cg.vectors");
    std::span<double> b = abft_vector(n, abft_scheme, "cg.b");
    for (std::size_t i = 0; i < n; ++i) b[i] = lin.b[i];
    lin = {};  // copied in: free the host inputs before the run
    // The kernel's scratch (preconditioner, checksums of A, verify
    // residual) is plain memory under the node's default scheme.
    MatrixView ws = plain_matrix(n, 4, "cg.workspace");

    abft::FtCg::Buffers buf{vecs.col(0), vecs.col(1), vecs.col(2),
                            vecs.col(3), vecs.col(4), {ws.data(), 4 * n}};
    vecs.fill(0.0);
    linalg::CgOptions cg_opt;
    cg_opt.max_iterations = iterations;
    cg_opt.tolerance = 1e-30;  // representative phase: run exactly N iters
    abft::FtCg ft(a, b, buf, cg_opt, ft_options(opt), rt.get());
    obs::PhaseScope compute(obs::Phase::kCompute);
    const abft::FtCgResult res = ft.run(*be);
    // A non-converged representative phase is the expected outcome here.
    const abft::FtStatus st = res.status == abft::FtStatus::kNumericalFailure
                                  ? abft::FtStatus::kOk
                                  : res.status;
    capture(std::span<const double>(vecs.col(0).data(), n));
    return collect(Kernel::kCg, ft.stats(), st);
  }

  RunMetrics run_hpl() {
    const ecc::Scheme abft_scheme = spec(opt.strategy).abft_scheme;
    const std::size_t n = opt.hpl_dim;
    const std::size_t h = n / opt.hpl_processes;
    Rng rng(opt.seed);
    linalg::LinearSystem lin = linalg::make_general_system(n, rng);

    abft::FtHpl::Buffers buf{abft_matrix(n + h, n + 1, abft_scheme, "hpl.Ae"),
                             abft_matrix(h, n + 1, abft_scheme, "hpl.Uc")};
    abft::FtHpl ft(*be, lin.a.view(), lin.b, opt.hpl_processes, buf,
                   ft_options(opt), rt.get());
    lin = {};  // encoded into Ae: the host copy is not needed for the run
    obs::PhaseScope compute(obs::Phase::kCompute);
    const abft::FtStatus st = ft.factor(*be);
    // Back-substitution result: the quantity campaigns compare. Untapped:
    // the representative (timed) phase is the factorization.
    std::vector<double> x(n, 0.0);
    if (st != abft::FtStatus::kUncorrectable) ft.solve(x);
    last_result = std::move(x);
    return collect(Kernel::kHpl, ft.stats(), st);
  }
};

Session::Session(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Session::~Session() = default;
Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;

memsim::MemorySystem& Session::memory() { return *impl_->sys; }
abftecc::os::Os& Session::os() { return *impl_->osl; }
abft::Runtime& Session::runtime() { return *impl_->rt; }
recovery::RecoveryManager* Session::recovery() { return impl_->rm.get(); }
fault::Injector& Session::injector() { return *impl_->inj; }
TapContext& Session::tap_context() { return *impl_->ctx; }
SimBackend& Session::backend() { return *impl_->be; }

obs::Registry& Session::metrics() {
  return impl_->own_registry ? *impl_->own_registry : obs::default_registry();
}

obs::Tracer& Session::tracer() {
  return impl_->own_tracer ? *impl_->own_tracer : obs::default_tracer();
}

obs::PhaseProfiler& Session::profiler() { return obs::default_profiler(); }

const PlatformOptions& Session::options() const { return impl_->opt; }

ecc::Scheme Session::abft_scheme() const {
  return spec(impl_->opt.strategy).abft_scheme;
}

MatrixView Session::abft_matrix(std::size_t rows, std::size_t cols,
                                const char* name) {
  return impl_->abft_matrix(rows, cols, abft_scheme(), name);
}

MatrixView Session::abft_matrix(std::size_t rows, std::size_t cols,
                                ecc::Scheme scheme, const char* name) {
  return impl_->abft_matrix(rows, cols, scheme, name);
}

MatrixView Session::plain_matrix(std::size_t rows, std::size_t cols,
                                 const char* name) {
  return impl_->plain_matrix(rows, cols, name);
}

std::span<double> Session::abft_vector(std::size_t n, const char* name) {
  return impl_->abft_vector(n, abft_scheme(), name);
}

std::span<double> Session::abft_vector(std::size_t n, ecc::Scheme scheme,
                                       const char* name) {
  return impl_->abft_vector(n, scheme, name);
}

std::uint64_t Session::abft_bytes() const { return impl_->abft_bytes; }
std::uint64_t Session::total_bytes() const { return impl_->total_bytes; }

void Session::flush_caches() {
  const std::size_t bytes = 4 * impl_->cfg.l2.size_bytes;
  if (impl_->flusher == nullptr) {
    impl_->flusher = impl_->osl->malloc_plain(bytes, "session.flush");
    ABFTECC_REQUIRE(impl_->flusher != nullptr);
  }
  const std::uint64_t phys = *impl_->osl->virt_to_phys(impl_->flusher);
  for (std::uint64_t off = 0; off < bytes; off += 64)
    impl_->sys->access(phys + off, memsim::AccessKind::kRead);
}

RunMetrics Session::run(Kernel kernel) {
  if (impl_->opt.backend == BackendMode::kNative) {
    switch (kernel) {
      case Kernel::kDgemm: return impl_->run_dgemm_native();
      case Kernel::kCholesky: return impl_->run_cholesky_native();
      case Kernel::kCg:
        return impl_->run_cg_native(impl_->opt.cg_dim,
                                    impl_->opt.cg_iterations);
      case Kernel::kHpl: return impl_->run_hpl_native();
    }
    ABFTECC_REQUIRE(!"unknown kernel");
    return {};
  }
  impl_->begin_run();
  switch (kernel) {
    case Kernel::kDgemm: return impl_->run_dgemm();
    case Kernel::kCholesky: return impl_->run_cholesky();
    case Kernel::kCg:
      return impl_->run_cg(impl_->opt.cg_dim, impl_->opt.cg_iterations);
    case Kernel::kHpl: return impl_->run_hpl();
  }
  ABFTECC_REQUIRE(!"unknown kernel");
  return {};
}

RunMetrics Session::run_cg(std::size_t dim, std::size_t iterations) {
  if (impl_->opt.backend == BackendMode::kNative)
    return impl_->run_cg_native(dim, iterations);
  impl_->begin_run();
  return impl_->run_cg(dim, iterations);
}

const std::vector<double>& Session::last_result() const {
  return impl_->last_result;
}

Session Session::Builder::build() {
  return Session(std::make_unique<Impl>(opt_, std::move(hooks_), private_obs_,
                                        record_, replay_));
}

RunMetrics run_kernel(Kernel kernel, const PlatformOptions& opt) {
  return Session::Builder(opt).build().run(kernel);
}

RunMetrics run_cg_at_dim(std::size_t dim, std::size_t iterations,
                         const PlatformOptions& opt) {
  return Session::Builder(opt).build().run_cg(dim, iterations);
}

}  // namespace abftecc::sim

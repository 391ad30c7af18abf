// The three benchmark workloads. Each calls the library's public entry
// points (bench::run_sweep, campaign::run_golden / run_campaign /
// run_trial, sim::Session, linalg::gemm_native, abft::FtDgemmFused),
// never a copy of them, so a later change behind those entry points is
// measured by this unchanged benchmark.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "abft/ft_dgemm_fused.hpp"
#include "bench/sweep.hpp"
#include "campaign/campaign.hpp"
#include "capture.hpp"
#include "common/rng.hpp"
#include "ecc/codec.hpp"
#include "linalg/gemm_native.hpp"
#include "linalg/generate.hpp"
#include "perfbench.hpp"
#include "sim/platform.hpp"

namespace perfbench {

using namespace abftecc;
using sim::Kernel;

namespace {

constexpr std::array<const char*, 4> kKernelKeys = {"dgemm", "cholesky", "cg",
                                                    "hpl"};
constexpr std::size_t kCaptureWindow = std::size_t{1} << 22;

std::size_t kidx(Kernel k) { return static_cast<std::size_t>(k); }
std::string kkey(Kernel k) { return kKernelKeys[kidx(k)]; }

/// Times a workload's set-up. The untraced run repeats it `reps` times
/// before the first timed operation and `reps` times after each one, so the
/// median it reports sees the host conditions of the whole run, not only
/// of its first moments. Every repetition redoes identical work. The traced
/// run sets up once.
class SetupTimer {
 public:
  SetupTimer(int reps, std::function<void()> body)
      : reps_(reps), body_(std::move(body)) {}

  void run() {
    for (int i = 0; i < (kTraced ? 1 : reps_); ++i) {
      Scope s("setup");
      const auto t0 = Clock::now();
      body_();
      samples_.push_back(seconds_since(t0));
    }
  }
  [[nodiscard]] double median_s() const { return median(samples_); }

 private:
  int reps_;
  std::function<void()> body_;
  std::vector<double> samples_;
};

/// Kernel inputs generated exactly as sim::Session generates them from the
/// platform seed; the benchmark's host references are computed from these.
struct Inputs {
  Matrix a, b;               // FT-DGEMM A, B; FT-Cholesky A (in a)
  linalg::LinearSystem sys;  // FT-CG and FT-HPL
};

Inputs generate(Kernel k, const sim::PlatformOptions& o) {
  Inputs in;
  Rng rng(o.seed);
  switch (k) {
    case Kernel::kDgemm:
      in.a = Matrix::random(o.dgemm_dim, o.dgemm_dim, rng);
      in.b = Matrix::random(o.dgemm_dim, o.dgemm_dim, rng);
      break;
    case Kernel::kCholesky: in.a = Matrix::random_spd(o.cholesky_dim, rng); break;
    case Kernel::kCg: in.sys = linalg::make_spd_system(o.cg_dim, rng); break;
    case Kernel::kHpl: in.sys = linalg::make_general_system(o.hpl_dim, rng); break;
  }
  return in;
}

double max_abs(const double* p, std::size_t n) {
  double m = 0.0;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::abs(p[i]));
  return m;
}

/// Residual 2-norm of A x = b relative to |b|.
double rel_residual(const Matrix& a, const std::vector<double>& b,
                    const std::vector<double>& x) {
  const std::size_t n = b.size();
  std::vector<double> r(b);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) r[i] -= a(i, j) * x[j];
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    rr += r[i] * r[i];
    bb += b[i] * b[i];
  }
  return std::sqrt(rr / bb);
}

/// Plain conjugate gradient from x = 0 for `iters` iterations.
std::vector<double> host_cg(const Matrix& a, const std::vector<double>& b,
                            std::size_t iters) {
  const std::size_t n = b.size();
  std::vector<double> x(n, 0.0), r(b), p(b), ap(n);
  double rr = 0.0;
  for (double v : r) rr += v * v;
  for (std::size_t it = 0; it < iters && rr > 0.0; ++it) {
    std::fill(ap.begin(), ap.end(), 0.0);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < n; ++i) ap[i] += a(i, j) * p[j];
    double pap = 0.0;
    for (std::size_t i = 0; i < n; ++i) pap += p[i] * ap[i];
    const double alpha = rr / pap;
    double rr_new = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
      rr_new += r[i] * r[i];
    }
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + rr_new / rr * p[i];
    rr = rr_new;
  }
  return x;
}

/// Check one kernel output (Session::last_result) against a reference
/// computed on the host from the same inputs. Returns "" when it passes.
std::string check_output(Kernel k, const std::vector<double>& out,
                         const Inputs& in, const sim::PlatformOptions& o) {
  char buf[160];
  switch (k) {
    case Kernel::kDgemm: {  // C = A B, result row-major
      const std::size_t n = o.dgemm_dim;
      if (out.size() != n * n) return "FT-DGEMM result has the wrong size";
      Matrix c(n, n);
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t p = 0; p < n; ++p) {
          const double bpj = in.b(p, j);
          for (std::size_t i = 0; i < n; ++i) c(i, j) += in.a(i, p) * bpj;
        }
      double err = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
          err = std::max(err, std::abs(out[i * n + j] - c(i, j)));
      const double rel = err / max_abs(c.data(), c.size());
      if (rel <= 1e-10) return "";
      std::snprintf(buf, sizeof buf, "FT-DGEMM |C-AB|/|AB| = %.3g > 1e-10", rel);
      return buf;
    }
    case Kernel::kCholesky: {  // L L^T = A over the lower triangle
      const std::size_t n = o.cholesky_dim;
      if (out.size() != n * n) return "FT-Cholesky result has the wrong size";
      auto l = [&](std::size_t i, std::size_t j) {
        return i >= j ? out[i * n + j] : 0.0;
      };
      double err = 0.0;
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t i = j; i < n; ++i) {
          double s = 0.0;
          for (std::size_t p = 0; p <= j; ++p) s += l(i, p) * l(j, p);
          err = std::max(err, std::abs(s - in.a(i, j)));
        }
      const double rel = err / max_abs(in.a.data(), in.a.size());
      if (rel <= 1e-10) return "";
      std::snprintf(buf, sizeof buf, "FT-Cholesky |LL^T-A|/|A| = %.3g > 1e-10",
                    rel);
      return buf;
    }
    case Kernel::kCg: {  // within 2x of plain CG after the same iterations
      const std::vector<double> ref =
          host_cg(in.sys.a, in.sys.b, o.cg_iterations);
      const double want = rel_residual(in.sys.a, in.sys.b, ref);
      if (out.size() != in.sys.b.size()) return "FT-CG result has the wrong size";
      const double got = rel_residual(in.sys.a, in.sys.b, out);
      if (std::isfinite(got) && got <= 2.0 * want + 1e-12) return "";
      std::snprintf(buf, sizeof buf,
                    "FT-CG residual %.3g exceeds plain CG's %.3g", got, want);
      return buf;
    }
    case Kernel::kHpl: {  // HPL's scaled residual test, threshold 16
      const std::size_t n = o.hpl_dim;
      if (out.size() != n) return "FT-HPL result has the wrong size";
      double rmax = 0.0, anorm = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        double r = -in.sys.b[i], row = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
          r += in.sys.a(i, j) * out[j];
          row += std::abs(in.sys.a(i, j));
        }
        rmax = std::max(rmax, std::abs(r));
        anorm = std::max(anorm, row);
      }
      const double scaled =
          rmax / (2.2e-16 * (anorm * max_abs(out.data(), n) +
                             max_abs(in.sys.b.data(), n)) *
                  static_cast<double>(n));
      if (scaled < 16.0) return "";
      std::snprintf(buf, sizeof buf, "FT-HPL scaled residual %.3g >= 16", scaled);
      return buf;
    }
  }
  return "unknown kernel";
}

std::string cell_name(Kernel k, sim::Strategy s) {
  return std::string(sim::kernel_name(k)) + "/" +
         std::string(sim::spec(s).label);
}

/// Rates and counts over a set of RunMetrics (memsim.* from RunMetrics).
struct SimTotals {
  double refs = 0, l1_acc = 0, l1_miss = 0, l2_acc = 0, l2_miss = 0;
  double row_hits = 0, row_total = 0;

  void add(const sim::RunMetrics& m, double times = 1.0) {
    refs += times * static_cast<double>(m.sys.mem_refs);
    l1_acc += times * static_cast<double>(m.l1.accesses);
    l1_miss += times * static_cast<double>(m.l1.misses);
    l2_acc += times * static_cast<double>(m.l2.accesses);
    l2_miss += times * static_cast<double>(m.l2.misses);
    row_hits += times * static_cast<double>(m.dram.row_hits);
    row_total +=
        times * static_cast<double>(m.dram.row_hits + m.dram.row_misses);
  }
  void report(Result& r) const {
    r.note("memsim.accesses", refs, "count");
    r.note("memsim.l1.miss_rate", l1_acc > 0 ? l1_miss / l1_acc : 0.0, "fraction");
    r.note("memsim.l2.miss_rate", l2_acc > 0 ? l2_miss / l2_acc : 0.0, "fraction");
    r.note("memsim.dram.row_hit_rate",
           row_total > 0 ? row_hits / row_total : 0.0, "fraction");
  }
};

/// Host seconds the traced executable's --wrap adds to each reference.
double wrap_s_per_ref(const ReplayCost& c) {
  return c.refs > 0 ? (c.wrapped_access_s - c.access_s) / c.refs : 0.0;
}

void report_replay(Result& r, const ReplayCost& c) {
  auto per = [](double s, double n) { return n > 0 ? s / n * 1e9 : 0.0; };
  r.note("memsim.access_ns", per(c.access_s, c.refs), "ns");
  r.note("memsim.l1.access_ns", per(c.l1_s, c.l1_refs), "ns");
  r.note("memsim.l2.access_ns", per(c.l2_s, c.l2_refs), "ns");
  r.note("memsim.dram.issue_ns", per(c.dram_s, c.dram_refs), "ns");
  r.note("memsim.mc.scheme_for_ns", per(c.mc_s, c.mc_calls), "ns");
  r.note("memsim.same_line_frac", c.refs > 0 ? c.same_line / c.refs : 0.0,
         "fraction");
  r.note("memsim.replay_refs", c.refs, "count");
  r.note("sim.tap.issue_ns", per(c.tap_s - c.wrapped_access_s, c.refs), "ns");
  r.note("obs.capture_wrap_ns", wrap_s_per_ref(c) * 1e9, "ns");
}

/// Allocations the simulated runs after it did not see: shifts where later
/// std::vector workspaces land in their host pages.
std::vector<std::unique_ptr<char[]>> perturb_heap() {
  std::vector<std::unique_ptr<char[]>> keep;
  for (std::size_t i = 0; i < 64; ++i) {
    keep.emplace_back(new char[24 + 40 * i]);
    keep.back()[0] = static_cast<char>(i);
  }
  keep.emplace_back(new char[3 * 1024 * 1024 + 4096 + 104]);
  keep.back()[0] = 1;
  return keep;
}

// --- paper_sweep -------------------------------------------------------------

/// The harness defaults (FT-DGEMM 320, FT-Cholesky 448, FT-CG 640 x 8,
/// FT-HPL 320 on 4 processes, cache_scale 8) take ~40 s per sweep, more
/// than one run may spend. Halving every dimension quarters each input's
/// footprint, and cache_scale 32 quarters the L2, so each cell keeps its
/// footprint/LLC ratio.
sim::PlatformOptions sweep_options(std::uint64_t seed) {
  sim::PlatformOptions o;
  o.dgemm_dim = 160;
  o.cholesky_dim = 224;
  o.cg_dim = 320;
  o.cg_iterations = 8;
  o.hpl_dim = 160;
  o.hpl_processes = 4;
  o.cache_scale = 32;
  o.seed = mix(seed ^ 0x5eed5eedULL);
  return o;
}

sim::PlatformOptions with_strategy(sim::PlatformOptions o, sim::Strategy s) {
  o.strategy = s;
  return o;
}

/// Cells whose status or counters show a failure in a run_sweep result.
void check_sweep(Result& r, const bench::Sweep& sw) {
  for (const Kernel k : bench::kSweepKernels)
    for (const sim::Strategy s : sim::kAllStrategies) {
      const sim::RunMetrics& m = sw.at(k, s);
      ++r.attempted;
      if (m.status != abft::FtStatus::kOk || m.ft.errors_detected != 0 ||
          m.sys.mem_refs == 0)
        r.fail(cell_name(k, s) + ": status " +
               std::string(abft::to_string(m.status)) + ", " +
               std::to_string(m.ft.errors_detected) + " errors detected");
    }
}

struct CellCheck {
  sim::RunMetrics metrics;
  double build_s = 0, run_s = 0;
};

/// Rerun one sweep cell on a Session of its own, so its output can be
/// checked, and check that it saw the same references as run_sweep's cell.
CellCheck verify_cell(Result& r, Kernel k, sim::Strategy s,
                      const sim::PlatformOptions& base, const Inputs& in,
                      const bench::Sweep& sw, std::uint64_t id) {
  CellCheck c;
  const sim::PlatformOptions o = with_strategy(base, s);
  Scope cell("cell " + cell_name(k, s), id);
  auto t0 = Clock::now();
  Scope build("sim.session_build", id);
  sim::Session sess = sim::Session::Builder(o).build();
  build.close();
  c.build_s = seconds_since(t0);
  t0 = Clock::now();
  {
    Scope run("sim.session_run", id);
    c.metrics = sess.run(k);
  }
  c.run_s = seconds_since(t0);
  {
    Scope chk("check.host_reference", id);
    std::string why = check_output(k, sess.last_result(), in, o);
    const sim::RunMetrics& ref = sw.at(k, s);
    if (why.empty() && (c.metrics.sys.mem_refs != ref.sys.mem_refs ||
                        c.metrics.refs_abft != ref.refs_abft))
      why = "references differ from the run_sweep cell";
    if (why.empty() && c.metrics.status != abft::FtStatus::kOk)
      why = "status " + std::string(abft::to_string(c.metrics.status));
    if (!why.empty()) r.fail(cell_name(k, s) + ": " + why);
  }
  return c;
}

/// Run one sweep cell once more while capturing a window from the middle
/// of its reference stream, then replay the window per memsim layer on the
/// cell's Session layout. A capture that did not see every reference of
/// the cell fails the run rather than reporting zero costs.
ReplayCost capture_cell(Result& r, Kernel k, sim::Strategy s,
                        const sim::PlatformOptions& base,
                        const bench::Sweep& sw, std::uint64_t id) {
  Scope cell("capture " + cell_name(k, s), id);
  sim::Session sess = sim::Session::Builder(with_strategy(base, s)).build();
  const std::uint64_t total = sw.at(k, s).sys.mem_refs;
  StreamCapture cap;
  cap.limit = kCaptureWindow;
  cap.skip = total > cap.limit ? (total - cap.limit) / 2 : 0;
  {
    Scope run("sim.session_run", id);
    capture_begin(cap);
    (void)sess.run(k);
    capture_end();
  }
  if (cap.seen != total || cap.refs.size() != std::min(total, cap.limit)) {
    r.fail(cell_name(k, s) + ": capture saw " + std::to_string(cap.seen) +
           " of " + std::to_string(total) + " references and kept " +
           std::to_string(cap.refs.size()));
    return {};
  }
  Scope rep("memsim.replay", id);
  return replay(cap, sess);
}


/// Cells rerun after perturbing the heap in the traced run: every FT-CG
/// cell (its std::vector workspaces are mapped by host page) plus one
/// L1-bound cell each of FT-DGEMM and FT-HPL.
std::vector<std::pair<Kernel, sim::Strategy>> drift_sample() {
  std::vector<std::pair<Kernel, sim::Strategy>> cells;
  for (const sim::Strategy s : sim::kAllStrategies)
    cells.emplace_back(Kernel::kCg, s);
  cells.emplace_back(Kernel::kDgemm, sim::Strategy::kWholeChipkill);
  cells.emplace_back(Kernel::kHpl, sim::Strategy::kWholeChipkill);
  return cells;
}

bool same_sim_result(const sim::RunMetrics& a, const sim::RunMetrics& b) {
  return a.sys.cpu_cycles == b.sys.cpu_cycles &&
         a.memory_pj() == b.memory_pj() && a.system_pj() == b.system_pj();
}

}  // namespace

Result run_paper_sweep(const RunArgs& args) {
  Result r;
  Scope root("workload paper_sweep");
  const sim::PlatformOptions opt = sweep_options(args.seed);

  // Set-up: every cell builds a Session and generates its kernel's inputs
  // before its first reference; the benchmark also keeps the inputs for its
  // host references.
  std::array<Inputs, 4> inputs;
  std::array<double, 4> gen_s{};
  SetupTimer setup(5, [&] {
    for (const sim::Strategy s : sim::kAllStrategies) {
      Scope b("sim.session_build");
      (void)sim::Session::Builder(with_strategy(opt, s)).build();
    }
    for (const Kernel k : bench::kSweepKernels) {
      Scope g("linalg.gen " + kkey(k));
      const auto tg = Clock::now();
      inputs[kidx(k)] = generate(k, opt);
      gen_s[kidx(k)] = seconds_since(tg);
    }
  });
  setup.run();

  // Timed: whole run_sweep calls until the run's time is used.
  std::vector<double> sweep_s;
  SimTotals totals;
  bench::Sweep first;
  const auto t_timed = Clock::now();
  for (;;) {
    Scope s("bench.run_sweep");
    const auto t0 = Clock::now();
    bench::Sweep sw = bench::run_sweep(opt);
    sweep_s.push_back(seconds_since(t0));
    check_sweep(r, sw);
    for (const auto& [key, m] : sw.results) totals.add(m);
    if (sweep_s.size() == 1) first = std::move(sw);
    if (kTraced || seconds_since(t_timed) + sweep_s.back() > args.seconds)
      break;
    setup.run();
  }
  double timed_s = 0.0;
  for (double t : sweep_s) timed_s += t;

  // Output checks of every cell: rerun on a Session of the benchmark's own, compare
  // with the host reference and with run_sweep's reference counts.
  std::array<double, 4> run_s{};
  std::vector<double> build_ms;
  double verify_s = 0.0;  // the cells' Session builds and runs, in spans
  {
    Scope v("verify_pass");
    std::uint64_t id = 0;
    for (const Kernel k : bench::kSweepKernels)
      for (const sim::Strategy s : sim::kAllStrategies) {
        const CellCheck c =
            verify_cell(r, k, s, opt, inputs[kidx(k)], first, id++);
        run_s[kidx(k)] += c.run_s - gen_s[kidx(k)];
        build_ms.push_back(c.build_s * 1e3);
        verify_s += c.build_s + c.run_s;
      }
  }

  r.note("sweep_s", median(sweep_s), "s");
  r.note("sim_maccess_per_s", totals.refs / timed_s / 1e6, "Mref/s");
  r.note("sweep_cells", static_cast<double>(r.attempted), "count");
  if (!kTraced) {
    r.gate("op_s", median(sweep_s), "s");
    r.gate("setup_s", setup.median_s(), "s");
    return r;
  }

  // Per-layer host cost: one L1-bound and one FT-CG (DRAM-bound) cell,
  // captured and replayed.
  ReplayCost replay_cost;
  replay_cost += capture_cell(r, Kernel::kDgemm, sim::Strategy::kWholeChipkill,
                              opt, first, 50);
  replay_cost += capture_cell(r, Kernel::kCg, sim::Strategy::kWholeChipkill,
                              opt, first, 51);

  // Heap-layout wobble: rerun a fixed sample of cells after allocations the
  // first sweep did not see, and count cells whose cycles or energy moved.
  // Reported only; it is not an output failure.
  double drift = 0;
  {
    Scope d("sim.cycle_drift");
    const auto keep = perturb_heap();
    std::uint64_t id = 100;
    for (const auto& [k, s] : drift_sample()) {
      Scope c("cell " + cell_name(k, s), id++);
      if (!same_sim_result(sim::run_kernel(k, with_strategy(opt, s)),
                           first.at(k, s)))
        drift += 1;
    }
  }

  SimTotals one;
  double abft_detected = 0, abft_corrected = 0;
  for (const auto& [key, m] : first.results) {
    one.add(m);
    abft_detected += static_cast<double>(m.ft.errors_detected);
    abft_corrected += static_cast<double>(m.ft.errors_corrected);
  }
  one.report(r);
  report_replay(r, replay_cost);
  r.note("sim.session_build_ms", median(build_ms), "ms");
  for (const Kernel k : bench::kSweepKernels)
    r.note("sim.run_self_s." + kkey(k), run_s[kidx(k)], "s");
  r.note("sim.cycle_drift_cells", drift, "count");
  r.note("sim.cycle_drift_sample", static_cast<double>(drift_sample().size()),
         "count");
  double gen_cell = 0.0;
  for (double g : gen_s) gen_cell += g;
  const double gen_sweep = gen_cell * static_cast<double>(sim::kAllStrategies.size());
  r.note("linalg.gen_s", gen_sweep, "s");
  r.note("linalg.gen_share", gen_sweep / sweep_s[0], "fraction");
  r.note("abft.errors_detected", abft_detected, "count");
  r.note("abft.errors_corrected", abft_corrected, "count");
  // Traced vs untraced: the same 24 cells run in spans (verify pass) against
  // the first run_sweep less what the --wrap adds to its references; both
  // run in this executable and so both pay the wrapper.
  const double wrap_s = wrap_s_per_ref(replay_cost) * one.refs;
  r.note("obs.tracing_overhead", verify_s / (sweep_s[0] - wrap_s) - 1.0,
         "fraction");
  return r;
}

// --- fault_campaign ----------------------------------------------------------

namespace {

constexpr std::size_t kTrialsPerKernel = 64;

/// The campaign CLI's inputs and the cooperative design point: P_CK+P_SD,
/// two chip-kill faults per trial over all live ranges, ladder on.
campaign::CampaignOptions campaign_options(Kernel k, std::uint64_t seed) {
  campaign::CampaignOptions o;
  o.kernel = k;
  o.platform.strategy = sim::Strategy::kPartialChipkillSecded;
  o.platform.dgemm_dim = 96;
  o.platform.cholesky_dim = 96;
  o.platform.cg_dim = 160;
  o.platform.cg_iterations = 3;
  o.platform.hpl_dim = 96;
  o.platform.ladder = true;
  o.platform.seed = mix(seed ^ 0xca3ca3ULL);
  o.fault.kind = campaign::FaultKind::kChipKill;
  o.fault.count = 2;
  o.fault.storm_all_ranges = true;
  o.trials = kTrialsPerKernel;
  o.threads = worker_count();
  return o;
}

std::uint64_t campaign_seed(std::uint64_t seed, std::size_t round, Kernel k) {
  return mix(seed * 1000003ULL + round * 16 + kidx(k));
}

/// Rerun `picks` trials of `res` single-threaded through run_trial; each
/// must reproduce the pool's record (outcomes do not depend on threads).
void check_campaign(Result& r, const campaign::CampaignOptions& o,
                    const campaign::GoldenRun& golden,
                    const campaign::CampaignResult& res, Rng& rng,
                    std::size_t picks) {
  const std::string name(sim::kernel_name(o.kernel));
  for (std::uint64_t i = 0; i < res.unclassified; ++i)
    r.fail(name + ": unclassified trial");
  for (std::size_t p = 0; p < picks && !res.trials.empty(); ++p) {
    const auto idx = static_cast<std::uint32_t>(rng.below(res.trials.size()));
    const campaign::TrialOutcome t = campaign::run_trial(o, golden, idx);
    const campaign::TrialOutcome& pool = res.trials[idx];
    if (t.outcome != pool.outcome ||
        campaign::trial_jsonl_line(o, t) != campaign::trial_jsonl_line(o, pool))
      r.fail(name + ": trial " + std::to_string(idx) +
             " differs when rerun on one thread");
  }
}

}  // namespace

Result run_fault_campaign(const RunArgs& args) {
  Result r;
  Scope root("workload fault_campaign");
  std::array<campaign::CampaignOptions, 4> opts;
  for (const Kernel k : bench::kSweepKernels)
    opts[kidx(k)] = campaign_options(k, args.seed);

  // Set-up: the four golden runs every trial is judged against. The
  // campaigns keep the first set; repetitions only time the same runs.
  std::array<campaign::GoldenRun, 4> golden;
  std::array<double, 4> golden_s{};
  bool have_golden = false;
  SetupTimer setup(2, [&] {
    std::array<campaign::GoldenRun, 4> g;
    for (const Kernel k : bench::kSweepKernels) {
      Scope sg("campaign.run_golden " + kkey(k), kidx(k));
      const auto tg = Clock::now();
      g[kidx(k)] = campaign::run_golden(opts[kidx(k)]);
      golden_s[kidx(k)] = seconds_since(tg);
    }
    if (!have_golden) golden = std::move(g);
    have_golden = true;
  });
  setup.run();

  // Timed: rounds of one run_campaign per kernel on nproc workers.
  Rng pick(mix(args.seed ^ 0x7e57ULL));
  std::array<std::vector<double>, 4> call_s;  // run_campaign wall, per kernel
  double timed_s = 0.0, trials = 0.0, refs = 0.0;
  std::array<std::uint64_t, campaign::kAllOutcomes.size()> outcomes{};
  double abft_detected = 0, abft_corrected = 0;
  std::array<double, 4> tail_s{};
  std::array<std::vector<double>, 4> done_at;  // progress timestamps
  std::array<std::vector<campaign::TrialOutcome>, 4> first_round;
  double last_round_s = 0.0;
  const auto t_timed = Clock::now();
  for (std::size_t round = 0;; ++round) {
    double round_s = 0.0;
    for (const Kernel k : bench::kSweepKernels) {
      campaign::CampaignOptions o = opts[kidx(k)];
      o.campaign_seed = campaign_seed(args.seed, round, k);
      std::vector<double>& stamps = done_at[kidx(k)];
      stamps.clear();
      Scope s("campaign.run_campaign " + kkey(k), kidx(k));
      const auto t0 = Clock::now();
      const campaign::Progress progress =
          kTraced ? campaign::Progress([&](std::size_t, std::size_t) {
            stamps.push_back(seconds_since(t0));
          })
                  : campaign::Progress();
      const campaign::CampaignResult res =
          campaign::run_campaign(o, golden[kidx(k)], progress);
      const double dt = seconds_since(t0);
      s.close();
      round_s += dt;
      call_s[kidx(k)].push_back(dt);
      r.attempted += res.trials.size();
      trials += static_cast<double>(res.trials.size());
      refs += static_cast<double>(res.trials.size()) *
              static_cast<double>(golden[kidx(k)].metrics.sys.mem_refs);
      for (const campaign::TrialOutcome& t : res.trials) {
        ++outcomes[static_cast<std::size_t>(t.outcome)];
        abft_detected += static_cast<double>(t.abft_detected);
        abft_corrected += static_cast<double>(t.abft_corrected);
      }
      if (kTraced && !stamps.empty()) {
        // The first worker idles from the completion that leaves fewer
        // trials than workers unclaimed until the kernel's last trial.
        const std::size_t chunk = campaign::resolve_chunk(o.chunk, o.trials, o.threads);
        const std::size_t in_flight = std::min<std::size_t>(
            stamps.size() - 1, (o.threads - 1) * chunk);
        tail_s[kidx(k)] =
            stamps.back() - stamps[stamps.size() - 1 - in_flight];
      }
      Scope c("check.rerun_single_thread", kidx(k));
      check_campaign(r, o, golden[kidx(k)], res, pick, 1);
      if (kTraced) first_round[kidx(k)] = res.trials;
    }
    timed_s += round_s;
    last_round_s = round_s;
    if (kTraced || seconds_since(t_timed) + round_s > args.seconds) break;
    setup.run();
  }
  double golden_refs = 0.0, golden_total_s = 0.0;
  for (std::size_t k = 0; k < 4; ++k) {
    golden_refs += static_cast<double>(golden[k].metrics.sys.mem_refs);
    golden_total_s += golden_s[k];
  }

  r.note("campaign_trials_per_s", trials / timed_s, "trials/s");
  r.note("sim_maccess_per_s",
         (refs + golden_refs) / (timed_s + golden_total_s) / 1e6, "Mref/s");
  if (!kTraced) {
    // Seconds per trial of a round, from each kernel's median campaign
    // call: a slow call is filtered per kernel, not per whole round.
    double round_s = 0.0;
    for (const auto& v : call_s) round_s += median(v);
    r.gate("op_s", round_s / static_cast<double>(4 * kTrialsPerKernel), "s");
    r.gate("setup_s", setup.median_s(), "s");
    return r;
  }

  // The untraced reference for obs.tracing_overhead: round 0 again through
  // run_campaign, one trial per claim like the pool below, with no spans
  // or progress callback. Outcomes must not depend on the chunking.
  const unsigned workers = worker_count();
  double reference_s = 0.0;
  Scope reference("obs.untraced_reference");
  for (const Kernel k : bench::kSweepKernels) {
    campaign::CampaignOptions o = opts[kidx(k)];
    o.campaign_seed = campaign_seed(args.seed, 0, k);
    o.chunk = 1;
    const auto t0 = Clock::now();
    const campaign::CampaignResult res = campaign::run_campaign(o, golden[kidx(k)]);
    reference_s += seconds_since(t0);
    for (std::size_t i = 0; i < res.trials.size(); ++i)
      if (res.trials[i].outcome != first_round[kidx(k)].at(i).outcome)
        r.fail(std::string(sim::kernel_name(k)) + ": trial " +
               std::to_string(i) + " outcome differs with chunk 1");
  }
  reference.close();

  // Per-trial spans: the benchmark runs round 0's trials again on nproc
  // workers of its own, one trial per claim, so each trial gets a span and
  // a duration; their outcomes must equal run_campaign's.
  std::array<std::vector<double>, 4> trial_ms;
  double pool_s = 0.0;
  for (const Kernel k : bench::kSweepKernels) {
    campaign::CampaignOptions o = opts[kidx(k)];
    o.campaign_seed = campaign_seed(args.seed, 0, k);
    Scope pool("campaign.pool " + kkey(k), kidx(k));
    std::atomic<std::uint32_t> next{0};
    std::mutex mu;
    std::vector<double>& ms = trial_ms[kidx(k)];
    std::vector<campaign::Outcome> got(o.trials);
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < workers; ++w)
      threads.emplace_back([&] {
        for (std::uint32_t i; (i = next++) < o.trials;) {
          const auto tt = Clock::now();
          Scope t("campaign.run_trial", i, pool.id());
          got[i] = campaign::run_trial(o, golden[kidx(k)], i).outcome;
          const double d = seconds_since(tt) * 1e3;
          std::lock_guard<std::mutex> lock(mu);
          ms.push_back(d);
        }
      });
    for (std::thread& t : threads) t.join();
    pool_s += seconds_since(t0);
    pool.close();
    for (std::size_t i = 0; i < got.size(); ++i)
      if (got[i] != first_round[kidx(k)].at(i).outcome)
        r.fail(std::string(sim::kernel_name(k)) + ": trial " +
               std::to_string(i) + " outcome differs on the benchmark's pool");
  }

  // Single-thread throughput on a quarter of the trials, same mix.
  double single_s = 0.0, single_trials = 0.0;
  {
    Scope st("campaign.single_thread");
    for (const Kernel k : bench::kSweepKernels) {
      campaign::CampaignOptions o = opts[kidx(k)];
      o.campaign_seed = campaign_seed(args.seed, 0, k);
      o.trials = kTrialsPerKernel / 4;
      o.threads = 1;
      const auto t0 = Clock::now();
      const campaign::CampaignResult res = campaign::run_campaign(o, golden[kidx(k)]);
      single_s += seconds_since(t0);
      single_trials += static_cast<double>(res.trials.size());
    }
  }

  // Layer detail per kernel: a Session of the benchmark's own with the trials'
  // options (its Os holds the same layout a trial's does), one captured
  // trial replayed per memsim layer, the ECC decode of the campaign's own
  // chip-kill patterns, and a golden rerun after perturbing the heap.
  ReplayCost replay_cost;
  SimTotals gt;
  std::vector<double> build_ms;
  std::array<double, 4> run_self{}, gen_s{};
  double decode_s = 0.0, decodes = 0.0, drift = 0.0;
  {
    const auto keep = perturb_heap();
    for (const Kernel k : bench::kSweepKernels) {
      const campaign::CampaignOptions& o = opts[kidx(k)];
      gt.add(golden[kidx(k)].metrics,
             1.0 + static_cast<double>(kTrialsPerKernel));
      Scope layer("layers " + kkey(k), kidx(k));
      for (int b = 0; b < 8; ++b) {
        Scope sb("sim.session_build");
        const auto t0 = Clock::now();
        (void)sim::Session::Builder(o.platform).private_observability().build();
        build_ms.push_back(seconds_since(t0) * 1e3);
      }
      {
        Scope g("linalg.gen " + kkey(k));
        const auto t0 = Clock::now();
        (void)generate(k, o.platform);
        gen_s[kidx(k)] = seconds_since(t0);
      }
      sim::Session sess =
          sim::Session::Builder(o.platform).private_observability().build();
      {
        Scope run("sim.session_run", kidx(k));
        const auto t0 = Clock::now();
        const sim::RunMetrics m = sess.run(k);
        run_self[kidx(k)] = seconds_since(t0) - gen_s[kidx(k)];
        if (!same_sim_result(m, golden[kidx(k)].metrics)) drift += 1;
      }
      {
        campaign::CampaignOptions t = o;
        t.campaign_seed = campaign_seed(args.seed, 0, k);
        StreamCapture cap;
        cap.limit = kCaptureWindow;
        {
          Scope tr("campaign.run_trial", 0);
          capture_begin(cap);
          (void)campaign::run_trial(t, golden[kidx(k)], 0);
          capture_end();
        }
        if (cap.refs.empty()) {
          r.fail(std::string(sim::kernel_name(k)) +
                 ": capture saw no references of trial 0");
        } else {
          Scope rep("memsim.replay", kidx(k));
          replay_cost += replay(cap, sess);
        }
      }
      {
        // Decode the fault patterns of this kernel's trials: the scheme
        // the controller applies at each fault address, the trial's chip.
        Scope dec("ecc.decode", kidx(k));
        std::array<std::uint8_t, ecc::kLineBytes> line{};
        const auto t0 = Clock::now();
        for (int rep = 0; rep < 200; ++rep)
          for (const campaign::TrialOutcome& tr : first_round[kidx(k)]) {
            line.fill(static_cast<std::uint8_t>(rep));
            (void)ecc::LineCodec::kill_chip(
                sess.memory().controller().scheme_for(tr.fault_phys), line,
                tr.fault_bit, o.fault.chip_pattern);
            decodes += 1;
          }
        decode_s += seconds_since(t0);
      }
    }
  }

  gt.report(r);
  report_replay(r, replay_cost);
  r.note("sim.session_build_ms", median(build_ms), "ms");
  for (const Kernel k : bench::kSweepKernels)
    r.note("sim.run_self_s." + kkey(k), run_self[kidx(k)], "s");
  r.note("sim.cycle_drift_cells", drift, "count");
  r.note("sim.cycle_drift_sample", 4, "count");
  double gen_total = 0.0;
  for (const Kernel k : bench::kSweepKernels)
    gen_total += gen_s[kidx(k)] * (1.0 + static_cast<double>(kTrialsPerKernel));
  r.note("linalg.gen_s", gen_total, "s");
  // Trials generate on nproc workers: share of the round's worker time.
  r.note("linalg.gen_share",
         gen_total / (workers * last_round_s + golden_total_s), "fraction");
  r.note("abft.errors_detected", abft_detected, "count");
  r.note("abft.errors_corrected", abft_corrected, "count");
  for (const Kernel k : bench::kSweepKernels) {
    const std::string key = kkey(k);
    r.note("campaign.golden_s." + key, golden_s[kidx(k)], "s");
    r.note("campaign.trial_ms.p50." + key, quantile(trial_ms[kidx(k)], 0.5), "ms");
    r.note("campaign.trial_ms.p90." + key, quantile(trial_ms[kidx(k)], 0.9), "ms");
    r.note("campaign.trial_samples." + key,
           static_cast<double>(trial_ms[kidx(k)].size()), "count");
    r.note("campaign.tail_s." + key, tail_s[kidx(k)], "s");
  }
  const double round_trials = static_cast<double>(4 * kTrialsPerKernel);
  r.note("campaign.parallel_efficiency",
         (round_trials / last_round_s) / (workers * single_trials / single_s),
         "fraction");
  for (const campaign::Outcome o : campaign::kAllOutcomes)
    r.note("campaign.outcome." + std::string(campaign::to_string(o)),
           static_cast<double>(outcomes[static_cast<std::size_t>(o)]), "count");
  r.note("ecc.decode_ns", decodes > 0 ? decode_s / decodes * 1e9 : 0.0, "ns");
  // Traced vs untraced: the per-trial pool in spans against the chunk-1
  // run_campaign round less what the --wrap adds to its references (spread
  // over the workers); both run in this executable and pay the wrapper.
  double round_refs = 0.0;
  for (const campaign::GoldenRun& g : golden)
    round_refs += static_cast<double>(kTrialsPerKernel) *
                  static_cast<double>(g.metrics.sys.mem_refs);
  const double wrap_s = wrap_s_per_ref(replay_cost) * round_refs / workers;
  r.note("obs.tracing_overhead", pool_s / (reference_s - wrap_s) - 1.0,
         "fraction");
  return r;
}

// --- native_ftgemm -----------------------------------------------------------

namespace {

/// n = 2048 takes ~3.7 s a call here, too few calls per run for a steady
/// median (single calls vary by +-10% on a shared host); n = 1024 still
/// overflows every private cache and gives ~50 calls per run.
constexpr std::size_t kNativeDim = 1024;

/// Largest |x - y| over the largest |y|.
double rel_diff(const Matrix& x, const Matrix& y) {
  double err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    err = std::max(err, std::abs(x.data()[i] - y.data()[i]));
  return err / max_abs(y.data(), y.size());
}

struct FusedCall {
  double seconds = 0.0;
  abft::FtStats stats;
};

/// One fused FT-GEMM call on the native backend, checked against the
/// plain gemm_native result `ref`.
FusedCall fused_call(Result& r, const Matrix& a, const Matrix& b, Matrix& c,
                     const Matrix& ref, std::uint64_t id) {
  FusedCall call;
  NativeBackend be;
  abft::FtDgemmFused ft(a.view(), b.view(), c.view());
  const auto t0 = Clock::now();
  {
    Scope s("abft.FtDgemmFused::run", id);
    const abft::FtStatus st = ft.run(be);
    call.seconds = seconds_since(t0);
    if (st != abft::FtStatus::kOk)
      r.fail("fused call " + std::to_string(id) + ": status " +
             std::string(abft::to_string(st)));
  }
  call.stats = ft.stats();
  ++r.attempted;
  Scope chk("check.vs_gemm_native", id);
  const double rel = rel_diff(c, ref);
  if (call.stats.errors_detected != 0 || !(rel <= 1e-9))
    r.fail("fused call " + std::to_string(id) + ": " +
           std::to_string(call.stats.errors_detected) +
           " errors detected, relative difference " + std::to_string(rel));
  return call;
}

double plain_call(const Matrix& a, const Matrix& b, Matrix& c, std::uint64_t id) {
  Scope s("linalg.gemm_native", id);
  const auto t0 = Clock::now();
  linalg::gemm_native(1.0, a.view(), b.view(), 0.0, c.view());
  return seconds_since(t0);
}

}  // namespace

Result run_native_ftgemm(const RunArgs& args) {
  Result r;
  Scope root("workload native_ftgemm");
  const auto t_start = Clock::now();
  const std::size_t n = kNativeDim;
  const double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(n);

  // Set-up: generate A and B and allocate C.
  Matrix a, b, c;
  std::vector<double> gen_samples;
  SetupTimer setup(1, [&] {
    Scope g("linalg.gen");
    const auto t0 = Clock::now();
    Rng rng(mix(args.seed ^ 0xf0f0ULL));
    a = Matrix::random(n, n, rng);
    b = Matrix::random(n, n, rng);
    gen_samples.push_back(seconds_since(t0));
    g.close();
    c = Matrix(n, n);
  });
  setup.run();

  double fma_peak = 0.0;
  if (kTraced) {
    Scope f("linalg.fma_peak");
    fma_peak = fma_peak_gflops();
  }

  // Timed: the reference gemm_native call, then fused calls until the
  // run's time is used. The traced run instead makes 10 rounds of a fused
  // call outside any span, a fused call in spans and a plain call.
  std::vector<double> plain_s, fused_s, untraced_fused_s, encode_s, verify_s;
  double abft_detected = 0, abft_corrected = 0;
  Matrix ref(n, n);
  const auto t_timed = Clock::now();
  plain_s.push_back(plain_call(a, b, ref, 0));
  for (std::uint64_t id = 1;; ++id) {
    if (kTraced) {
      NativeBackend be;
      abft::FtDgemmFused ft(a.view(), b.view(), c.view());
      const auto t0 = Clock::now();
      (void)ft.run(be);
      untraced_fused_s.push_back(seconds_since(t0));
    }
    const FusedCall call = fused_call(r, a, b, c, ref, id);
    fused_s.push_back(call.seconds);
    encode_s.push_back(call.stats.encode_seconds);
    verify_s.push_back(call.stats.verify_seconds);
    abft_detected += static_cast<double>(call.stats.errors_detected);
    abft_corrected += static_cast<double>(call.stats.errors_corrected);
    if (kTraced) {
      plain_s.push_back(plain_call(a, b, c, id));
      if (id == 10) break;
      continue;
    }
    if (seconds_since(t_timed) + call.seconds > args.seconds) break;
    setup.run();
  }

  const double fused = median(fused_s);
  r.note("ftgemm_gflops", flops / fused / 1e9, "GF/s");
  r.note("fused_calls", static_cast<double>(fused_s.size()), "count");
  if (!kTraced) {
    r.gate("op_s", fused, "s");
    r.gate("setup_s", setup.median_s(), "s");
    return r;
  }
  const double plain = median(plain_s);
  const double gemm_gflops = flops / plain / 1e9;
  r.note("linalg.gen_s", median(gen_samples), "s");
  r.note("linalg.gen_share", median(gen_samples) / seconds_since(t_start),
         "fraction");
  r.note("linalg.gemm_native_gflops", gemm_gflops, "GF/s");
  r.note("linalg.fma_peak_gflops", fma_peak, "GF/s");
  r.note("linalg.gemm_peak_frac", fma_peak > 0 ? gemm_gflops / fma_peak : 0.0,
         "fraction");
  r.note("abft.fused_overhead", fused / plain - 1.0, "fraction");
  r.note("abft.encode_s", median(encode_s), "s");
  r.note("abft.verify_s", median(verify_s), "s");
  r.note("abft.errors_detected", abft_detected, "count");
  r.note("abft.errors_corrected", abft_corrected, "count");
  r.note("obs.tracing_overhead", fused / median(untraced_fused_s) - 1.0,
         "fraction");
  return r;
}

}  // namespace perfbench

// `campaign`: Monte Carlo fault-injection campaigns over the simulated
// node (see src/campaign/). Emits the schema-stable bench::Report JSON
// (--json) plus a per-trial JSON-lines log (--jsonl), and prints
// per-kernel outcome rates with Wilson 95% intervals.
//
// Exit status: 0 on success, 1 if any trial's outcome was unclassified
// (its injected fault never materialized) -- the CI smoke gate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/report.hpp"
#include "campaign/accumulator.hpp"
#include "campaign/campaign.hpp"
#include "campaign/exhaustive.hpp"
#include "campaignd/protocol.hpp"
#include "campaignd/shard.hpp"

namespace {

using abftecc::campaign::Accumulator;
using abftecc::campaign::CampaignOptions;
using abftecc::campaign::CampaignResult;
using abftecc::campaign::FaultKind;
using abftecc::campaign::Outcome;
using abftecc::campaign::Rate;
using abftecc::sim::Kernel;
using abftecc::sim::Strategy;

constexpr Kernel kAllKernels[] = {Kernel::kDgemm, Kernel::kCholesky,
                                  Kernel::kCg, Kernel::kHpl};

void print_usage(const char* prog) {
  std::printf(
      "usage: %s [options]\n"
      "  --kernel <k>      dgemm | cholesky | cg | hpl | all (default dgemm)\n"
      "  --trials <n>      trials per kernel (default 256)\n"
      "  --threads <n>     worker threads (default: hardware concurrency)\n"
      "  --seed <n>        campaign seed; trial i uses seed^i (default 7)\n"
      "  --input-seed <n>  kernel-input seed shared by all trials\n"
      "  --strategy <s>    no_ecc | w_ck | p_ck_no | w_sd | p_sd_no |\n"
      "                    p_ck_sd (default p_ck_sd, the cooperative\n"
      "                    ABFT-under-SECDED design point)\n"
      "  --fault <f>       single_bit | double_bit | chip_kill\n"
      "  --faults <n>      faults per trial (default 1; >1 = fault storm)\n"
      "  --storm           sample sites over ALL live allocations, not just\n"
      "                    the ABFT-protected ranges\n"
      "  --ladder          enable the recovery escalation ladder\n"
      "  --forbid-panics   exit 1 if any trial ended in Os::panic (the\n"
      "                    escalation stress gate)\n"
      "  --tolerance <x>   max |error| vs golden still 'correct' (1e-6)\n"
      "  --latencies       measure per-trial recovery latency (first ECC\n"
      "                    interrupt -> first recovery event) and emit\n"
      "                    cycle histograms under the report's 'latency'\n"
      "                    key; simulated cycles depend only on config and\n"
      "                    seed, so the report is byte-reproducible at any\n"
      "                    --threads\n"
      "  --jsonl <path>    per-trial JSON-lines log\n"
      "  --lineage <path>  per-fault provenance ledger (JSON lines): every\n"
      "                    injected fault's stage chain from injection to\n"
      "                    terminal outcome, reconciled exactly against the\n"
      "                    outcome taxonomy (any orphaned or double-counted\n"
      "                    record exits 1); explore with tools/forensics.py.\n"
      "                    Seed-deterministic, cycle stamps included\n"
      "  --json <path>     schema-stable campaign report\n"
      "  --shards <n>      run trials in n forked worker PROCESSES with\n"
      "                    work-stealing chunk scheduling instead of the\n"
      "                    in-process thread pool; the per-trial JSONL and\n"
      "                    the report are byte-identical for any n\n"
      "  --chunk <n>       trials per work-stealing chunk (0 = auto)\n"
      "  --checkpoint <d>  (with --shards) persist Fletcher-64-verified\n"
      "                    progress checkpoints under <d>/<kernel>/ after\n"
      "                    every chunk; a killed sweep rerun with --resume\n"
      "                    replays the verified chunks byte-identically\n"
      "  --resume          allow --checkpoint to pick up existing progress\n"
      "                    (without it, a non-empty checkpoint is an error)\n"
      "  --aggregate <p>   write the merged campaign::Accumulator JSON (one\n"
      "                    object keyed by kernel slug)\n"
      "  --exhaustive      enumerate the FULL SECDED(72,64) fault space (72\n"
      "                    singles + 2556 doubles per word) instead of\n"
      "                    sampling; exact counts, exit 1 if any analytic\n"
      "                    guarantee is violated\n"
      "  --words <n>       exhaustive mode: 64-bit data words to sweep\n"
      "  --metrics-out <p> write an OpenMetrics text exposition of the final\n"
      "                    metrics registry (validated by tools/promcheck.py)\n"
      "                    and attach a 'telemetry' time-series section to\n"
      "                    --json; purely additive -- the per-trial JSONL and\n"
      "                    --aggregate output stay byte-identical\n"
      "plus the shared platform flags (--dgemm-dim, --cache-scale, ...);\n"
      "campaign defaults shrink the inputs so 256-trial sweeps stay fast.\n",
      prog);
}

bool parse_kernel(const char* v, std::vector<Kernel>& out) {
  if (std::strcmp(v, "all") == 0) {
    out.assign(std::begin(kAllKernels), std::end(kAllKernels));
    return true;
  }
  if (std::strcmp(v, "dgemm") == 0) return out = {Kernel::kDgemm}, true;
  if (std::strcmp(v, "cholesky") == 0) return out = {Kernel::kCholesky}, true;
  if (std::strcmp(v, "cg") == 0) return out = {Kernel::kCg}, true;
  if (std::strcmp(v, "hpl") == 0) return out = {Kernel::kHpl}, true;
  return false;
}

bool parse_strategy(const char* v, Strategy& out) {
  if (std::strcmp(v, "no_ecc") == 0) return out = Strategy::kNoEcc, true;
  if (std::strcmp(v, "w_ck") == 0) return out = Strategy::kWholeChipkill, true;
  if (std::strcmp(v, "p_ck_no") == 0)
    return out = Strategy::kPartialChipkillNoEcc, true;
  if (std::strcmp(v, "w_sd") == 0) return out = Strategy::kWholeSecded, true;
  if (std::strcmp(v, "p_sd_no") == 0)
    return out = Strategy::kPartialSecdedNoEcc, true;
  if (std::strcmp(v, "p_ck_sd") == 0)
    return out = Strategy::kPartialChipkillSecded, true;
  return false;
}

bool parse_fault(const char* v, FaultKind& out) {
  if (std::strcmp(v, "single_bit") == 0)
    return out = FaultKind::kSingleBit, true;
  if (std::strcmp(v, "double_bit") == 0)
    return out = FaultKind::kDoubleBit, true;
  if (std::strcmp(v, "chip_kill") == 0)
    return out = FaultKind::kChipKill, true;
  return false;
}

std::string kernel_slug(Kernel k) {
  switch (k) {
    case Kernel::kDgemm: return "dgemm";
    case Kernel::kCholesky: return "cholesky";
    case Kernel::kCg: return "cg";
    case Kernel::kHpl: return "hpl";
  }
  return "?";
}

void print_rates(const CampaignResult& r) {
  auto line = [](const char* name, const Rate& rate) {
    std::printf("  %-24s %6llu  %7.4f  [%.4f, %.4f]\n", name,
                static_cast<unsigned long long>(rate.count), rate.fraction,
                rate.wilson_lo, rate.wilson_hi);
  };
  std::printf("  %-24s %6s  %7s  %s\n", "outcome", "count", "frac",
              "wilson 95%");
  line("corrected", r.corrected);
  line("detected_uncorrected", r.detected_uncorrected);
  line("silent_data_corruption", r.silent_data_corruption);
  line("benign_masked", r.benign_masked);
  line("recovered_by_recompute", r.recovered_by_recompute);
  line("recovered_by_rollback", r.recovered_by_rollback);
  line("unrecoverable", r.unrecoverable);
  if (r.panicked_trials > 0)
    std::printf("  PANICKED trials: %llu\n",
                static_cast<unsigned long long>(r.panicked_trials));
  if (r.unclassified > 0)
    std::printf("  UNCLASSIFIED trials: %llu\n",
                static_cast<unsigned long long>(r.unclassified));
}

/// One kernel's entry of the report's "latency" section, read straight
/// off the merged Accumulator (identical for the in-process and sharded
/// paths): the interrupt-to-recovery cycle histogram over the fixed
/// geometric ladder plus the simulated run cost per outcome.
void write_latency_json(abftecc::obs::JsonWriter& w, const Accumulator& acc) {
  w.begin_object();
  w.field("trials", acc.trials());
  w.field("with_interrupt_to_recovery", acc.latency_count());
  w.key("interrupt_to_recovery_cycles");
  w.begin_object();
  w.field("count", acc.latency_count());
  w.field("sum", static_cast<double>(acc.latency_sum()));
  w.field("mean", acc.latency_count() == 0
                      ? 0.0
                      : static_cast<double>(acc.latency_sum()) /
                            static_cast<double>(acc.latency_count()));
  w.field("max", static_cast<double>(acc.latency_max()));
  w.key("bounds");
  w.begin_array();
  for (std::size_t i = 0; i < Accumulator::kLatencyBounds; ++i)
    w.value(Accumulator::latency_bound(i));
  w.end_array();
  w.key("buckets");
  w.begin_array();
  for (std::size_t i = 0; i < Accumulator::kLatencyBuckets; ++i)
    w.value(acc.latency_bucket(i));
  w.end_array();
  w.end_object();
  // Run cost per outcome: recovery tiers show up as longer simulated runs
  // (recompute/rollback trials pay their tier's cycles).
  w.key("cycles_by_outcome");
  w.begin_object();
  for (const Outcome o : abftecc::campaign::kAllOutcomes) {
    const Accumulator::OutcomeCost c = acc.cost(o);
    if (c.trials == 0) continue;
    w.key(to_string(o));
    w.begin_object();
    w.field("trials", c.trials);
    w.field("mean_cycles", static_cast<double>(c.sum_cycles) /
                               static_cast<double>(c.trials));
    w.field("max_cycles", static_cast<double>(c.max_cycles));
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

/// One kernel's entry of the report's "lineage" section: the deterministic
/// reconciliation summary (counts only -- no cycle stamps), so the section
/// stays on the byte-determinism surface.
void write_lineage_json(abftecc::obs::JsonWriter& w,
                        const CampaignResult::LineageSummary& sum) {
  w.begin_object();
  w.field("ok", sum.ok);
  w.field("faults", sum.faults);
  w.field("orphans", sum.orphans);
  w.field("double_counted", sum.double_counted);
  w.field("exposed_dropped", sum.exposed_dropped);
  w.key("resolutions");
  w.begin_object();
  for (std::size_t i = 0; i < sum.resolutions.size(); ++i) {
    const auto stage = static_cast<abftecc::obs::LineageStage>(i);
    if (abftecc::obs::is_resolution(stage))
      w.field(abftecc::obs::to_string(stage), sum.resolutions[i]);
  }
  w.end_object();
  w.key("terminals");
  w.begin_object();
  for (std::size_t i = 0; i < abftecc::campaign::kAllOutcomes.size(); ++i)
    w.field(to_string(abftecc::campaign::kAllOutcomes[i]), sum.terminals[i]);
  w.end_object();
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<Kernel> kernels = {Kernel::kDgemm};
  CampaignOptions base;
  base.threads = std::max(1u, std::thread::hardware_concurrency());
  std::string jsonl_path;
  std::string lineage_path;
  std::string checkpoint_dir;
  std::string aggregate_path;
  std::uint64_t input_seed = 42;
  unsigned shards = 0;
  bool resume = false;
  bool exhaustive = false;
  std::uint64_t exhaustive_words = 16;
  bool strategy_given = false;
  bool forbid_panics = false;

  // Split argv: campaign-specific flags are consumed here, everything
  // else (--json/--trace/platform dims) is forwarded to bench::Report's
  // shared parser.
  std::vector<char*> fwd = {argv[0]};
  auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: missing value for %s\n", argv[0], argv[i]);
      std::exit(2);
    }
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--kernel") == 0) {
      if (!parse_kernel(need_value(i), kernels)) {
        std::fprintf(stderr, "%s: unknown kernel '%s'\n", argv[0], argv[i + 1]);
        return 2;
      }
      ++i;
    } else if (std::strcmp(a, "--trials") == 0) {
      base.trials = std::strtoull(need_value(i), nullptr, 10), ++i;
    } else if (std::strcmp(a, "--threads") == 0) {
      base.threads =
          static_cast<unsigned>(std::strtoul(need_value(i), nullptr, 10));
      ++i;
    } else if (std::strcmp(a, "--seed") == 0) {
      base.campaign_seed = std::strtoull(need_value(i), nullptr, 10), ++i;
    } else if (std::strcmp(a, "--input-seed") == 0) {
      input_seed = std::strtoull(need_value(i), nullptr, 10), ++i;
    } else if (std::strcmp(a, "--strategy") == 0) {
      if (!parse_strategy(need_value(i), base.platform.strategy)) {
        std::fprintf(stderr, "%s: unknown strategy '%s'\n", argv[0],
                     argv[i + 1]);
        return 2;
      }
      strategy_given = true;
      ++i;
    } else if (std::strcmp(a, "--fault") == 0) {
      if (!parse_fault(need_value(i), base.fault.kind)) {
        std::fprintf(stderr, "%s: unknown fault kind '%s'\n", argv[0],
                     argv[i + 1]);
        return 2;
      }
      ++i;
    } else if (std::strcmp(a, "--faults") == 0) {
      base.fault.count = std::max(
          1u, static_cast<unsigned>(std::strtoul(need_value(i), nullptr, 10)));
      ++i;
    } else if (std::strcmp(a, "--storm") == 0) {
      base.fault.storm_all_ranges = true;
    } else if (std::strcmp(a, "--ladder") == 0) {
      base.platform.ladder = true;
    } else if (std::strcmp(a, "--forbid-panics") == 0) {
      forbid_panics = true;
    } else if (std::strcmp(a, "--tolerance") == 0) {
      base.tolerance = std::strtod(need_value(i), nullptr), ++i;
    } else if (std::strcmp(a, "--latencies") == 0) {
      base.measure_latency = true;
    } else if (std::strcmp(a, "--jsonl") == 0) {
      jsonl_path = need_value(i), ++i;
    } else if (std::strcmp(a, "--shards") == 0) {
      shards = static_cast<unsigned>(std::strtoul(need_value(i), nullptr, 10));
      ++i;
    } else if (std::strcmp(a, "--chunk") == 0) {
      base.chunk = std::strtoull(need_value(i), nullptr, 10), ++i;
    } else if (std::strcmp(a, "--checkpoint") == 0) {
      checkpoint_dir = need_value(i), ++i;
    } else if (std::strcmp(a, "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(a, "--aggregate") == 0) {
      aggregate_path = need_value(i), ++i;
    } else if (std::strcmp(a, "--exhaustive") == 0) {
      exhaustive = true;
    } else if (std::strcmp(a, "--words") == 0) {
      exhaustive_words = std::strtoull(need_value(i), nullptr, 10), ++i;
    } else if (std::strcmp(a, "--lineage") == 0) {
      lineage_path = need_value(i), ++i;
      base.lineage = true;
    } else if (std::strcmp(a, "--help") == 0) {
      print_usage(argv[0]);
      return 0;
    } else {
      fwd.push_back(argv[i]);
    }
  }

  if (exhaustive) {
    // Exhaustive SECDED(72,64) fault-space coverage: not a Monte-Carlo
    // sweep, so none of the platform/report machinery applies. Counts
    // are exact; exit status is the analytic-guarantee verdict.
    abftecc::campaign::exhaustive::Options ex;
    ex.words = exhaustive_words;
    ex.seed = base.campaign_seed;
    ex.threads = base.threads;
    std::printf("campaign --exhaustive: %llu word(s) x (%llu singles + %llu "
                "doubles), %u thread(s)\n",
                static_cast<unsigned long long>(ex.words),
                static_cast<unsigned long long>(
                    abftecc::campaign::exhaustive::kSinglesPerWord),
                static_cast<unsigned long long>(
                    abftecc::campaign::exhaustive::kDoublesPerWord),
                ex.threads);
    const abftecc::campaign::exhaustive::Result r =
        abftecc::campaign::exhaustive::run(ex);
    const std::string json = r.to_json();
    std::printf("%s\n", json.c_str());
    if (!aggregate_path.empty()) {
      std::FILE* f = std::fopen(aggregate_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "%s: cannot open '%s' for writing\n", argv[0],
                     aggregate_path.c_str());
        return 2;
      }
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    }
    if (!r.ok()) {
      std::fprintf(stderr,
                   "campaign: exhaustive SECDED enumeration violated the "
                   "analytic guarantees\n");
      return 1;
    }
    std::printf("exhaustive coverage OK: every single-bit fault corrected "
                "exactly, every double-bit fault detected\n");
    return 0;
  }

  // Campaign-friendly input sizes: a trial costs one full simulated run,
  // so the figure-scale defaults (320..640) would make 256-trial sweeps
  // take hours. Platform flags forwarded below still override these.
  if (!strategy_given)
    base.platform.strategy = Strategy::kPartialChipkillSecded;
  base.platform.dgemm_dim = 96;
  base.platform.cholesky_dim = 96;
  base.platform.cg_dim = 160;
  base.platform.cg_iterations = 3;
  base.platform.hpl_dim = 96;
  base.platform.seed = input_seed;

  abftecc::bench::Report report(static_cast<int>(fwd.size()), fwd.data(),
                                "Fault-injection campaign",
                                "Section 5 fault-injection methodology",
                                base.platform);
  base.platform.seed = input_seed;  // campaign flag wins over --seed leftovers

  // Telemetry plane (opt-in via --metrics-out): the progress callback
  // counts finished trials in this thread's registry and samples it at
  // most every 0.25 s. The callback runs under the campaign's progress
  // lock, on whichever worker finished the trial, so it uses the registry
  // resolved here rather than that worker's default.
  const bool telemetry = !report.cli().metrics_out_path.empty();
  auto& reg = abftecc::obs::default_registry();
  abftecc::obs::TelemetrySampler sampler({240, 0.0});
  double telemetry_last_t = -1.0;  // the first progress call always samples
  const auto telemetry_epoch = std::chrono::steady_clock::now();
  const auto telemetry_now = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         telemetry_epoch)
        .count();
  };

  std::FILE* jsonl = nullptr;
  if (!jsonl_path.empty()) {
    jsonl = std::fopen(jsonl_path.c_str(), "w");
    if (jsonl == nullptr) {
      std::fprintf(stderr, "%s: cannot open '%s' for writing\n", argv[0],
                   jsonl_path.c_str());
      return 2;
    }
  }
  std::FILE* lineage_file = nullptr;
  if (!lineage_path.empty()) {
    lineage_file = std::fopen(lineage_path.c_str(), "w");
    if (lineage_file == nullptr) {
      std::fprintf(stderr, "%s: cannot open '%s' for writing\n", argv[0],
                   lineage_path.c_str());
      return 2;
    }
  }

  std::printf("campaign: %zu trial(s)/kernel, %u thread(s), seed %llu, "
              "fault %s, strategy %s\n\n",
              base.trials, base.threads,
              static_cast<unsigned long long>(base.campaign_seed),
              std::string(to_string(base.fault.kind)).c_str(),
              std::string(abftecc::sim::spec(base.platform.strategy).label)
                  .c_str());

  // Every kernel's golden run first: its trials replay its reference
  // stream and classify against its result.
  std::vector<abftecc::campaign::GoldenRun> goldens;
  goldens.reserve(kernels.size());
  for (const Kernel k : kernels) {
    CampaignOptions opt = base;
    opt.kernel = k;
    goldens.push_back(abftecc::campaign::run_golden(opt));
    std::printf("  [%s] golden run: %llu tap refs\n", kernel_slug(k).c_str(),
                static_cast<unsigned long long>(goldens.back().total_refs));
  }
  std::printf("\n");

  std::uint64_t total_unclassified = 0;
  std::uint64_t total_panicked = 0;
  std::uint64_t lineage_errors = 0;
  abftecc::obs::JsonWriter latency_json;
  if (base.measure_latency) latency_json.begin_object();
  abftecc::obs::JsonWriter lineage_json;
  if (base.lineage) lineage_json.begin_object();
  abftecc::obs::JsonWriter aggregate_json;
  if (!aggregate_path.empty()) aggregate_json.begin_object();
  for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
    const Kernel k = kernels[ki];
    CampaignOptions opt = base;
    opt.kernel = k;

    const auto t0 = std::chrono::steady_clock::now();
    std::size_t last_decile = 0;
    std::size_t last_done = 0;
    const auto progress = [&](std::size_t done, std::size_t total) {
      if (telemetry && done >= last_done) {
        reg.counter("campaign.trials").add(done - last_done);
        last_done = done;
        if (const double t = telemetry_now(); t - telemetry_last_t >= 0.25) {
          sampler.sample(reg, t);
          telemetry_last_t = t;
        }
      }
      const std::size_t decile = total == 0 ? 10 : 10 * done / total;
      if (decile > last_decile) {
        last_decile = decile;
        std::printf("  [%s] %zu/%zu trials\n", kernel_slug(k).c_str(), done,
                    total);
        std::fflush(stdout);
      }
    };
    CampaignResult res;
    Accumulator acc(opt);
    abftecc::campaignd::ShardOutcome sharded;
    if (shards > 0) {
      // Multi-process path: forked workers steal trial chunks; the trial
      // JSONL and the report are byte-identical to the in-process path.
      abftecc::campaignd::ShardOptions so;
      so.shards = shards;
      if (!checkpoint_dir.empty()) {
        so.checkpoint_dir = checkpoint_dir + "/" + kernel_slug(k);
        abftecc::campaignd::JobSpec fp;
        fp.name.clear();
        fp.shards = 0;  // the shard count must not pin the checkpoint
        fp.options = opt;
        so.fingerprint = abftecc::campaignd::job_fingerprint(fp);
        if (!resume) {
          const std::string manifest = so.checkpoint_dir + "/manifest.json";
          if (std::FILE* mf = std::fopen(manifest.c_str(), "rb");
              mf != nullptr) {
            std::fclose(mf);
            std::fprintf(stderr,
                         "%s: checkpoint %s already exists; pass --resume to "
                         "continue it or remove the directory\n",
                         argv[0], so.checkpoint_dir.c_str());
            return 1;
          }
        }
      }
      so.progress = progress;
      sharded = abftecc::campaignd::run_sharded(opt, goldens[ki], so);
      if (!sharded.ok) {
        std::fprintf(stderr, "%s: sharded campaign failed: %s\n", argv[0],
                     sharded.error.c_str());
        return 1;
      }
      if (sharded.chunks_resumed > 0)
        std::printf("  [%s] resumed %llu of %llu chunk(s) from checkpoint\n",
                    kernel_slug(k).c_str(),
                    static_cast<unsigned long long>(sharded.chunks_resumed),
                    static_cast<unsigned long long>(sharded.chunks_total));
      acc = sharded.acc;
      res.options = opt;
      res.golden = goldens[ki].metrics;
      acc.finalize_into(res);
    } else {
      res = abftecc::campaign::run_campaign(opt, goldens[ki], progress);
      acc = Accumulator::of(opt, res.trials);
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::printf("%s: %zu trials in %.2fs wall (%.1f trials/s)\n",
                std::string(kernel_name(k)).c_str(), opt.trials, wall,
                static_cast<double>(opt.trials) / wall);
    print_rates(res);
    std::printf("\n");

    report.add_run("golden/" + std::string(kernel_name(k)), res.golden);

    const std::string slug = kernel_slug(k);
    auto rate_scalars = [&](const char* name, const Rate& r) {
      report.scalar(slug + "." + name + "_fraction", r.fraction);
      report.scalar(slug + "." + name + "_wilson_lo", r.wilson_lo);
      report.scalar(slug + "." + name + "_wilson_hi", r.wilson_hi);
    };
    rate_scalars("corrected", res.corrected);
    rate_scalars("detected_uncorrected", res.detected_uncorrected);
    rate_scalars("silent_data_corruption", res.silent_data_corruption);
    rate_scalars("benign_masked", res.benign_masked);
    rate_scalars("recovered_by_recompute", res.recovered_by_recompute);
    rate_scalars("recovered_by_rollback", res.recovered_by_rollback);
    rate_scalars("unrecoverable", res.unrecoverable);
    report.scalar(slug + ".trials", static_cast<double>(opt.trials));
    report.scalar(slug + ".unclassified",
                  static_cast<double>(res.unclassified));
    report.scalar(slug + ".panicked", static_cast<double>(res.panicked_trials));
    total_unclassified += res.unclassified;
    total_panicked += res.panicked_trials;

    if (base.measure_latency) {
      const std::uint64_t n = acc.latency_count();
      std::printf("  [%s] interrupt->recovery latency: %llu trial(s), mean "
                  "%.0f cycles\n",
                  slug.c_str(), static_cast<unsigned long long>(n),
                  n == 0 ? 0.0
                         : static_cast<double>(acc.latency_sum()) /
                               static_cast<double>(n));
      latency_json.key(slug);
      write_latency_json(latency_json, acc);
    }

    if (jsonl != nullptr) {
      if (shards > 0) {
        for (const std::string& line : sharded.trial_lines)
          std::fprintf(jsonl, "%s\n", line.c_str());
      } else {
        for (const auto& t : res.trials)
          abftecc::campaign::write_trial_jsonl(jsonl, opt, t);
      }
    }

    if (base.lineage) {
      if (lineage_file != nullptr) {
        if (shards > 0) {
          std::fputs(sharded.lineage_lines.c_str(), lineage_file);
        } else {
          for (const auto& t : res.trials)
            abftecc::campaign::write_lineage_jsonl(lineage_file, opt, t);
        }
      }
      const auto& lin = res.lineage;
      std::printf("  [%s] lineage: %llu fault record(s), %llu orphan(s), "
                  "%llu double-counted, %llu log drop(s) -- "
                  "reconciliation %s\n",
                  slug.c_str(), static_cast<unsigned long long>(lin.faults),
                  static_cast<unsigned long long>(lin.orphans),
                  static_cast<unsigned long long>(lin.double_counted),
                  static_cast<unsigned long long>(lin.exposed_dropped),
                  lin.ok ? "OK" : "FAILED");
      for (const std::string& e : lin.errors)
        std::fprintf(stderr, "  [%s] lineage error: %s\n", slug.c_str(),
                     e.c_str());
      lineage_errors += lin.errors.size();
      lineage_json.key(slug);
      write_lineage_json(lineage_json, res.lineage);
      report.scalar(slug + ".lineage_faults",
                    static_cast<double>(lin.faults));
      report.scalar(slug + ".lineage_orphans",
                    static_cast<double>(lin.orphans));
      report.scalar(slug + ".exposed_dropped",
                    static_cast<double>(lin.exposed_dropped));
    }

    if (!aggregate_path.empty()) {
      aggregate_json.key(slug);
      aggregate_json.raw(acc.to_json());
    }
  }

  if (base.measure_latency) {
    latency_json.end_object();
    report.section("latency", latency_json.take());
    report.note("latency",
                "cycle-derived recovery-latency histograms (--latencies); "
                "deterministic for a fixed seed");
  }
  if (base.lineage) {
    lineage_json.end_object();
    report.section("lineage", lineage_json.take());
    report.note("lineage",
                "per-fault provenance ledger reconciliation (--lineage); "
                "counts only, deterministic for a fixed seed");
  }

  if (telemetry) {
    sampler.sample(reg, telemetry_now());  // tail: every trial counted
    report.section("telemetry", sampler.to_json());
    report.note("telemetry",
                "timeseries-v1 trial-rate rings (--metrics-out), host "
                "wall-clock; JSONL/aggregate outputs are byte-identical "
                "with telemetry off");
  }

  report.note("campaign_seed", std::to_string(base.campaign_seed));
  report.note("fault", std::string(to_string(base.fault.kind)));
  report.note("ft_phase_timers",
              "golden encode/verify/correct seconds are simulated time, "
              "deterministic for a fixed seed");

  if (jsonl != nullptr) {
    std::fclose(jsonl);
    std::printf("wrote per-trial JSON lines: %s\n", jsonl_path.c_str());
  }
  if (lineage_file != nullptr) {
    std::fclose(lineage_file);
    std::printf("wrote fault provenance ledger: %s\n", lineage_path.c_str());
  }
  if (!aggregate_path.empty()) {
    aggregate_json.end_object();
    std::FILE* f = std::fopen(aggregate_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "%s: cannot open %s for writing\n", argv[0],
                   aggregate_path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", aggregate_json.take().c_str());
    std::fclose(f);
    std::printf("wrote merged accumulator JSON: %s\n", aggregate_path.c_str());
  }
  if (lineage_errors > 0) {
    std::fprintf(stderr,
                 "campaign: lineage reconciliation FAILED with %llu "
                 "error(s) -- orphaned or double-counted fault records\n",
                 static_cast<unsigned long long>(lineage_errors));
    return 1;
  }
  if (total_unclassified > 0) {
    std::fprintf(stderr, "campaign: %llu unclassified trial(s)\n",
                 static_cast<unsigned long long>(total_unclassified));
    return 1;
  }
  if (forbid_panics && total_panicked > 0) {
    std::fprintf(stderr, "campaign: %llu panicked trial(s) (--forbid-panics)\n",
                 static_cast<unsigned long long>(total_panicked));
    return 1;
  }
  return 0;
}

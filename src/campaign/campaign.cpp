#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "campaign/accumulator.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "os/os.hpp"

namespace abftecc::campaign {

const Rate& CampaignResult::rate(Outcome o) const {
  switch (o) {
    case Outcome::kCorrected: return corrected;
    case Outcome::kDetectedUncorrected: return detected_uncorrected;
    case Outcome::kSilentDataCorruption: return silent_data_corruption;
    case Outcome::kBenignMasked: return benign_masked;
    case Outcome::kRecoveredByRecompute: return recovered_by_recompute;
    case Outcome::kRecoveredByRollback: return recovered_by_rollback;
    case Outcome::kUnrecoverable: return unrecoverable;
  }
  return corrected;
}

Interval wilson_interval(std::uint64_t k, std::uint64_t n, double z) {
  if (n == 0) return {0.0, 1.0};
  const double nn = static_cast<double>(n);
  const double p = static_cast<double>(k) / nn;
  const double zz = z * z;
  const double denom = 1.0 + zz / nn;
  const double center = p + zz / (2.0 * nn);
  const double margin =
      z * std::sqrt(p * (1.0 - p) / nn + zz / (4.0 * nn * nn));
  // Pin the exact endpoints: mathematically lo = 0 at k = 0 and hi = 1 at
  // k = n, but the quotient can round to 0.999... in floating point.
  return {k == 0 ? 0.0 : std::max(0.0, (center - margin) / denom),
          k == n ? 1.0 : std::min(1.0, (center + margin) / denom)};
}

Outcome classify(abft::FtStatus status, bool output_correct, bool panicked,
                 std::uint64_t errors_corrected, std::uint64_t recomputes,
                 std::uint64_t rollbacks) {
  // Any reported-but-unrepaired failure means checkpoint/restart: the
  // result is not trusted even if it happens to be numerically close.
  if (panicked) return Outcome::kDetectedUncorrected;
  // Graceful ladder exhaustion: still a failed run, but surfaced to the
  // caller as a status instead of a process-level panic.
  if (status == abft::FtStatus::kUnrecoverable) return Outcome::kUnrecoverable;
  if (status == abft::FtStatus::kUncorrectable ||
      status == abft::FtStatus::kNumericalFailure)
    return Outcome::kDetectedUncorrected;
  if (!output_correct) return Outcome::kSilentDataCorruption;
  // Correct result: the DEEPEST recovery tier that fired names the trial.
  if (rollbacks > 0) return Outcome::kRecoveredByRollback;
  if (recomputes > 0) return Outcome::kRecoveredByRecompute;
  return errors_corrected > 0 ? Outcome::kCorrected : Outcome::kBenignMasked;
}

TrialOutcome run_trial(const CampaignOptions& opt, const GoldenRun& golden,
                       std::uint32_t index) {
  TrialOutcome t;
  t.index = index;
  t.seed = opt.campaign_seed ^ index;
  Rng rng(t.seed);

  // The ledger scope must OUTLIVE the session (declared first): the
  // injector resolves still-pending faults during session teardown paths,
  // and scope destruction is LIFO like the session's own obs scopes.
  std::optional<obs::LineageLedger> ledger;
  std::optional<obs::LineageScope> ledger_scope;
  if (opt.lineage) {
    ledger.emplace();
    ledger->enable();
    ledger_scope.emplace(*ledger);
  }

  sim::Session s =
      sim::Session::Builder(opt.platform).private_observability().build();

  if (opt.measure_latency) {
    // The session's private tracer records the trial's timeline. Demand
    // misses are masked out so the bounded ring never evicts the handful
    // of fault/recovery events a latency scan needs.
    s.tracer().set_mask(~obs::kind_bit(obs::EventKind::kDemandMiss));
    s.tracer().enable();
  }

  // Injection times: `count` uniform points in the golden reference
  // stream (a storm when > 1). The trial replays the golden execution
  // exactly until the first fault lands, so the first index is always
  // reached; later ones fire by re-arming the one-shot trigger from
  // inside the callback, in ascending order.
  const unsigned nfaults = std::max(1u, opt.fault.count);
  std::vector<std::uint64_t> refs(nfaults);
  for (auto& r : refs) r = 1 + rng.below(golden.total_refs);
  std::sort(refs.begin(), refs.end());
  // The one-shot trigger needs strictly increasing refs: re-arming at a
  // reference the counter already passed would never fire.
  for (std::size_t i = 1; i < refs.size(); ++i)
    if (refs[i] <= refs[i - 1]) refs[i] = refs[i - 1] + 1;
  t.inject_ref = refs.front();

  std::size_t next_fault = 0;
  std::function<void()> fire = [&] {
    const auto ranges = opt.fault.storm_all_ranges
                            ? s.os().all_phys_ranges()
                            : s.os().abft_phys_ranges();
    const std::size_t fault_index = next_fault++;
    if (next_fault < refs.size())
      s.tap_context().set_ref_trigger(refs[next_fault], fire);
    std::uint64_t total = 0;
    for (const auto& [begin, end] : ranges) total += end - begin;
    if (total == 0) return;  // strategy with no matching allocations
    std::uint64_t off = rng.below(total);
    std::uint64_t phys = 0;
    for (const auto& [begin, end] : ranges) {
      const std::uint64_t len = end - begin;
      if (off < len) {
        phys = begin + off;
        break;
      }
      off -= len;
    }
    if (fault_index == 0) t.fault_phys = phys;
    auto& inj = s.injector();
    switch (opt.fault.kind) {
      case FaultKind::kSingleBit: {
        const auto bit = static_cast<unsigned>(rng.below(8));
        if (fault_index == 0) t.fault_bit = bit;
        inj.inject_bit(phys, bit);
        break;
      }
      case FaultKind::kDoubleBit: {
        // Two distinct flips in one 64-bit word.
        const std::uint64_t word = phys & ~std::uint64_t{7};
        const auto b1 = static_cast<unsigned>(rng.below(64));
        auto b2 = static_cast<unsigned>(rng.below(63));
        if (b2 >= b1) ++b2;
        inj.inject_bit(word + b1 / 8, b1 % 8);
        inj.inject_bit(word + b2 / 8, b2 % 8);
        if (fault_index == 0) t.fault_bit = b1;
        break;
      }
      case FaultKind::kChipKill: {
        const auto chip = static_cast<unsigned>(rng.below(16));
        if (fault_index == 0) t.fault_bit = chip;
        inj.inject_chip_kill(phys, chip, opt.fault.chip_pattern);
        break;
      }
    }
    // Materialize immediately, as if the corrupted line were read now:
    // the fault goes through the scheme's decoder instead of waiting for
    // a fill that might never come (or a writeback that would erase it).
    inj.flush_pending();
  };
  s.tap_context().set_ref_trigger(refs.front(), fire);

  const sim::RunMetrics m = s.run(opt.kernel);

  const std::vector<double>& result = s.last_result();
  double max_err = 0.0;
  bool comparable = result.size() == golden.result.size();
  for (std::size_t i = 0; comparable && i < result.size(); ++i) {
    const double d = std::fabs(result[i] - golden.result[i]);
    if (std::isnan(d) || d > max_err) max_err = d;
  }
  const bool correct = comparable && max_err <= opt.tolerance;

  const fault::InjectorStats& ist = s.injector().stats();
  t.injected = ist.injected_flips + ist.injected_chip_kills;
  t.exposed_dropped = s.os().exposed_dropped();
  t.ecc_corrected = ist.corrected_by_ecc;
  t.ecc_uncorrectable = ist.uncorrectable;
  t.silent_corruptions = ist.silent_corruptions;
  t.cleared_by_writeback = ist.cleared_by_writeback;
  t.materialized = ist.corrected_by_ecc + ist.uncorrectable +
                       ist.silent_corruptions + ist.cleared_by_writeback >
                   0;
  t.abft_detected = m.ft.errors_detected;
  t.abft_corrected = m.ft.errors_corrected;
  t.panicked = s.os().panicked();
  t.status = m.status;
  t.recomputes = m.recovery.recomputes;
  t.rollbacks = m.recovery.rollbacks;
  t.escalations = m.recovery.escalations;
  t.corrupted_checkpoints = m.recovery.corrupted_checkpoints;
  t.max_abs_error = max_err;
  t.cycles = m.sys.cpu_cycles;
  if (opt.measure_latency) {
    // First OS ECC interrupt -> end of the first recovery-path event
    // recorded after it. Complete events (drain, correct, rollback) are
    // recorded at phase END, so snapshot order is completion order; their
    // span may have OPENED before the interrupt, hence end-time math.
    std::uint64_t intr = 0;
    bool have_intr = false;
    for (const obs::TraceEvent& e : s.tracer().snapshot()) {
      if (!have_intr) {
        if (e.kind == obs::EventKind::kEccInterrupt) {
          intr = e.ts;
          have_intr = true;
        }
        continue;
      }
      const bool recovery_event = e.kind == obs::EventKind::kErrorsDrained ||
                                  e.kind == obs::EventKind::kRecover ||
                                  e.kind == obs::EventKind::kRecompute ||
                                  e.kind == obs::EventKind::kRollback;
      if (!recovery_event) continue;
      const std::uint64_t end = e.ts + e.dur;
      if (end < intr) continue;
      t.interrupt_to_recovery_cycles = static_cast<double>(end - intr);
      break;
    }
  }
  t.outcome = classify(m.status, correct, t.panicked,
                       ist.corrected_by_ecc + m.ft.errors_corrected,
                       t.recomputes, t.rollbacks);
  if (ledger.has_value()) {
    ledger->seal(to_string(t.outcome));
    t.lineage_terminal = ledger->terminal();
    t.lineage_faults = ledger->faults();
    t.lineage_events = ledger->events();
  }
  return t;
}

std::size_t resolve_chunk(std::size_t chunk, std::size_t trials,
                          unsigned workers) {
  if (chunk > 0) return chunk;
  // Auto: ~8 chunks per worker so the tail stays balanced, capped so a
  // resumable sweep checkpoints at a useful granularity.
  const std::size_t w = std::max(1u, workers);
  const std::size_t auto_chunk = trials / (w * 8);
  return std::clamp<std::size_t>(auto_chunk, 1, 512);
}

GoldenRun run_golden(const CampaignOptions& opt) {
  GoldenRun golden;
  sim::Session g =
      sim::Session::Builder(opt.platform).private_observability().build();
  golden.metrics = g.run(opt.kernel);
  golden.total_refs = golden.metrics.refs_abft + golden.metrics.refs_other;
  golden.result = g.last_result();
  return golden;
}

CampaignResult run_campaign(const CampaignOptions& opt,
                            const GoldenRun& golden,
                            const Progress& progress) {
  ABFTECC_REQUIRE(opt.trials > 0);
  ABFTECC_REQUIRE(golden.total_refs > 0);
  CampaignResult out;
  out.options = opt;
  out.golden = golden.metrics;

  out.trials.resize(opt.trials);
  const unsigned nthreads = std::max(1u, opt.threads);
  const std::size_t chunk = resolve_chunk(opt.chunk, opt.trials, nthreads);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex progress_mu;
  // Chunked self-scheduling: workers claim `chunk` consecutive trial
  // indices per step (one atomic op per chunk instead of per trial).
  auto worker = [&] {
    for (;;) {
      const std::size_t base = next.fetch_add(chunk, std::memory_order_relaxed);
      if (base >= opt.trials) return;
      const std::size_t end = std::min(base + chunk, opt.trials);
      for (std::size_t i = base; i < end; ++i) {
        out.trials[i] = run_trial(opt, golden, static_cast<std::uint32_t>(i));
        const std::size_t d = done.fetch_add(1, std::memory_order_relaxed) + 1;
        if (progress) {
          const std::lock_guard<std::mutex> lock(progress_mu);
          progress(d, opt.trials);
        }
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(nthreads - 1);
  for (unsigned i = 1; i < nthreads; ++i) pool.emplace_back(worker);
  worker();  // the calling thread participates
  for (auto& th : pool) th.join();

  // All aggregate fields flow through the mergeable Accumulator -- the
  // same fold campaignd applies shard by shard, so a sharded sweep's
  // report cannot drift from a single-process one.
  Accumulator::of(opt, out.trials).finalize_into(out);
  return out;
}

CampaignResult run_campaign(const CampaignOptions& opt,
                            const Progress& progress) {
  return run_campaign(opt, run_golden(opt), progress);
}

void write_trial_jsonl(std::FILE* f, const CampaignOptions& opt,
                       const TrialOutcome& t) {
  std::fprintf(f, "%s\n", trial_jsonl_line(opt, t).c_str());
}

std::string trial_jsonl_line(const CampaignOptions& opt,
                             const TrialOutcome& t) {
  obs::JsonWriter w;
  w.begin_object()
      .field("trial", static_cast<std::uint64_t>(t.index))
      .field("seed", t.seed)
      .field("kernel", sim::kernel_name(opt.kernel))
      .field("strategy", sim::spec(opt.platform.strategy).label)
      .field("fault", to_string(opt.fault.kind))
      .field("faults", static_cast<std::uint64_t>(
                           std::max(1u, opt.fault.count)))
      .field("outcome", to_string(t.outcome))
      .field("status", abft::to_string(t.status))
      .field("inject_ref", t.inject_ref)
      .field("fault_phys", t.fault_phys)
      .field("fault_bit", t.fault_bit)
      .field("injected", t.injected)
      .field("ecc_corrected", t.ecc_corrected)
      .field("ecc_uncorrectable", t.ecc_uncorrectable)
      .field("silent_corruptions", t.silent_corruptions)
      .field("cleared_by_writeback", t.cleared_by_writeback)
      .field("exposed_dropped", t.exposed_dropped)
      .field("abft_detected", t.abft_detected)
      .field("abft_corrected", t.abft_corrected)
      .field("recomputes", t.recomputes)
      .field("rollbacks", t.rollbacks)
      .field("escalations", t.escalations)
      .field("corrupted_checkpoints", t.corrupted_checkpoints)
      .field("panicked", t.panicked)
      .field("materialized", t.materialized)
      .field("max_abs_error", t.max_abs_error)
      .end_object();
  return w.take();
}

CampaignResult::LineageSummary reconcile_lineage(const CampaignResult& result) {
  // Pure fold through the mergeable Accumulator: per-trial checks in
  // add(), the cross-trial partition invariant in lineage_summary().
  Accumulator acc(Accumulator::Config{/*lineage=*/true,
                                      result.options.measure_latency});
  for (const TrialOutcome& t : result.trials) acc.add(t);
  return acc.lineage_summary();
}

void write_lineage_jsonl(std::FILE* f, const CampaignOptions& opt,
                         const TrialOutcome& t) {
  std::fputs(lineage_jsonl_lines(opt, t).c_str(), f);
}

std::string lineage_jsonl_lines(const CampaignOptions& opt,
                                const TrialOutcome& t) {
  std::string out;
  const auto write_events = [](obs::JsonWriter& w,
                               const std::vector<obs::LineageEvent>& events,
                               std::uint32_t fault_id) {
    w.key("events").begin_array();
    for (const obs::LineageEvent& e : events) {
      if (e.fault != fault_id) continue;
      w.begin_object()
          .field("stage", obs::to_string(e.stage))
          .field("cycle", e.cycle)
          .field("addr", e.addr)
          .field("a0", e.a0)
          .field("a1", e.a1);
      if (e.tag != nullptr) w.field("tag", e.tag);
      w.end_object();
    }
    w.end_array();
  };
  for (const obs::LineageFault& fr : t.lineage_faults) {
    obs::JsonWriter w;
    w.begin_object()
        .field("trial", static_cast<std::uint64_t>(t.index))
        .field("kernel", sim::kernel_name(opt.kernel))
        .field("fault", static_cast<std::uint64_t>(fr.id))
        .field("kind", fr.kind)
        .field("phys", fr.phys)
        .field("bit", static_cast<std::uint64_t>(fr.bit))
        .field("resolution", fr.resolution_count > 0
                                 ? obs::to_string(fr.resolution)
                                 : std::string_view("none"))
        .field("resolution_count",
               static_cast<std::uint64_t>(fr.resolution_count))
        .field("exposed", fr.exposed)
        .field("located", fr.located)
        .field("terminal", fr.terminal);
    write_events(w, t.lineage_events, fr.id);
    w.end_object();
    out += w.str();
    out += '\n';
  }
  obs::JsonWriter w;
  w.begin_object()
      .field("trial", static_cast<std::uint64_t>(t.index))
      .field("kernel", sim::kernel_name(opt.kernel))
      .field("terminal", t.lineage_terminal)
      .field("faults", static_cast<std::uint64_t>(t.lineage_faults.size()))
      .field("exposed_dropped", t.exposed_dropped);
  write_events(w, t.lineage_events, 0);
  w.end_object();
  out += w.str();
  out += '\n';
  return out;
}

}  // namespace abftecc::campaign

// Monte Carlo fault-injection campaign engine (paper Section 5 / BIFIT
// methodology): N independent trials of one (kernel, strategy,
// fault-scenario) triple, each on its own fully isolated simulated node
// (sim::Session with private observability), run on a std::thread pool.
//
// Determinism contract: trial i derives everything random from
// `campaign_seed ^ i` (xoshiro seeded through splitmix64, so the xor'd
// seeds are decorrelated), the kernel inputs come from the shared
// platform seed, and trials share no mutable state -- the same campaign
// seed therefore reproduces bit-identical per-trial outcomes regardless
// of thread count or scheduling.
//
// Each trial picks a uniformly random reference index in the golden run's
// tap stream and a uniformly random byte of the live ABFT-protected
// physical ranges, queues the scenario's fault there mid-run, and forces
// it to materialize through the ECC decoder immediately (as if the line
// were read), so every trial resolves through the real cooperative path:
// ECC correction, MC error registers + OS interrupt + runtime drain, or
// silent corruption left for ABFT. The outcome is judged against a
// fault-free golden run of the same configuration.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string_view>
#include <vector>

#include "abft/common.hpp"
#include "obs/lineage.hpp"
#include "sim/platform.hpp"

namespace abftecc::campaign {

/// Per-trial verdict (the paper's fault-injection taxonomy, extended with
/// the recovery ladder's tiers).
enum class Outcome : std::uint8_t {
  kCorrected,            ///< run finished correct and an error was corrected
                         ///< (by ECC or by ABFT)
  kDetectedUncorrected,  ///< the stack reported the fault but could not
                         ///< repair it (ABFT uncorrectable, kernel failure,
                         ///< or OS panic): checkpoint/restart territory
  kSilentDataCorruption, ///< wrong result, nothing detected anything
  kBenignMasked,         ///< correct result with no correction performed
                         ///< (fault overwritten or in dead data)
  kRecoveredByRecompute, ///< correct result, ladder tier 2 (block recompute
                         ///< from inputs) did the heavy lifting
  kRecoveredByRollback,  ///< correct result via a verified checkpoint
                         ///< restore (ladder tier 3)
  kUnrecoverable,        ///< ladder exhausted; surfaced gracefully to the
                         ///< caller instead of a panic
};

inline constexpr std::array<Outcome, 7> kAllOutcomes = {
    Outcome::kCorrected,            Outcome::kDetectedUncorrected,
    Outcome::kSilentDataCorruption, Outcome::kBenignMasked,
    Outcome::kRecoveredByRecompute, Outcome::kRecoveredByRollback,
    Outcome::kUnrecoverable};

constexpr std::string_view to_string(Outcome o) {
  switch (o) {
    case Outcome::kCorrected: return "corrected";
    case Outcome::kDetectedUncorrected: return "detected_uncorrected";
    case Outcome::kSilentDataCorruption: return "silent_data_corruption";
    case Outcome::kBenignMasked: return "benign_masked";
    case Outcome::kRecoveredByRecompute: return "recovered_by_recompute";
    case Outcome::kRecoveredByRollback: return "recovered_by_rollback";
    case Outcome::kUnrecoverable: return "unrecoverable";
  }
  return "?";
}

enum class FaultKind : std::uint8_t {
  kSingleBit,  ///< one DRAM bit flip (Table 5's dominant event)
  kDoubleBit,  ///< two flips in one 64-bit word: SECDED's guaranteed
               ///< detected-uncorrectable pattern
  kChipKill,   ///< whole-chip failure with a stuck-bit-line pattern
};

constexpr std::string_view to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kSingleBit: return "single_bit";
    case FaultKind::kDoubleBit: return "double_bit";
    case FaultKind::kChipKill: return "chip_kill";
  }
  return "?";
}

struct FaultScenario {
  FaultKind kind = FaultKind::kSingleBit;
  /// Nibble corruption mask for kChipKill (0x3 = two stuck bit-lines).
  std::uint8_t chip_pattern = 0x3;
  /// Faults per trial (a storm when > 1), injected at independently
  /// sampled reference points of the golden stream.
  unsigned count = 1;
  /// Sample injection sites over ALL live allocations instead of only the
  /// ABFT-protected ranges, so plain structures (kernel inputs) get hit
  /// too -- the scenario that historically ended in Os::panic.
  bool storm_all_ranges = false;
};

struct CampaignOptions {
  sim::Kernel kernel = sim::Kernel::kDgemm;
  /// Shared per-trial node configuration. `platform.seed` seeds the kernel
  /// INPUTS and is identical across trials (one golden run serves all);
  /// per-trial randomness comes from campaign_seed instead.
  sim::PlatformOptions platform;
  FaultScenario fault;
  std::size_t trials = 256;
  unsigned threads = 1;
  std::uint64_t campaign_seed = 7;
  /// Max |element| deviation from the golden result still counted correct
  /// (ABFT checksum corrections reconstruct values to roundoff, not bits).
  double tolerance = 1e-6;
  /// Record per-trial recovery latency (first OS ECC interrupt to the end
  /// of the first recovery-path event) by running each trial's private
  /// tracer with demand misses masked out. Off by default, as it turns
  /// on every trial's tracer. The measured cycles depend only on options
  /// and seed.
  bool measure_latency = false;
  /// Trials claimed per scheduling step by the in-process pool (and the
  /// chunk granularity campaignd shards steal from each other). 0 = auto:
  /// scale with trials/threads so a million-trial sweep does not hammer
  /// one atomic counter per trial. Never affects per-trial outcomes --
  /// trial i derives everything from campaign_seed ^ i regardless of
  /// which worker ran it.
  std::size_t chunk = 0;
  /// Run each trial with a private fault provenance ledger
  /// (obs/lineage.hpp): every injected fault gets a lineage ID and its
  /// stage chain is kept on the TrialOutcome; run_campaign() then
  /// reconciles the ledgers against the outcome taxonomy
  /// (CampaignResult::lineage). Off by default; MUST NOT perturb trial
  /// outcomes (the CI smoke gate byte-compares trial JSONL with and
  /// without it). Every ledger field, event cycle stamps included, is
  /// deterministic for a fixed seed.
  bool lineage = false;
};

/// Everything deterministic about one trial. Host wall-clock quantities
/// are deliberately excluded so identical seeds serialize identically.
struct TrialOutcome {
  std::uint32_t index = 0;
  std::uint64_t seed = 0;
  Outcome outcome = Outcome::kBenignMasked;
  abft::FtStatus status = abft::FtStatus::kOk;
  std::uint64_t inject_ref = 0;  ///< 1-based tap reference of the injection
  std::uint64_t fault_phys = 0;
  unsigned fault_bit = 0;  ///< bit for bit flips, chip for chip kills
  /// Faults the injector actually created (flips + chip kills); the
  /// lineage reconciliation requires one fault record for each.
  std::uint64_t injected = 0;
  std::uint64_t ecc_corrected = 0;
  std::uint64_t ecc_uncorrectable = 0;
  std::uint64_t silent_corruptions = 0;
  std::uint64_t cleared_by_writeback = 0;
  /// Exposed-error log records the OS dropped under storm overload
  /// (distinguishes "dropped" from "lost" in lineage orphan analysis).
  std::uint64_t exposed_dropped = 0;
  std::uint64_t abft_detected = 0;
  std::uint64_t abft_corrected = 0;
  bool panicked = false;
  /// Recovery-ladder accounting for the trial's run (zero, ladder off).
  std::uint64_t recomputes = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t escalations = 0;
  std::uint64_t corrupted_checkpoints = 0;
  /// The injected fault went through some resolution path (decode,
  /// silent corruption, or writeback clear). A false value means the
  /// injection was lost -- the campaign counts it as unclassified.
  bool materialized = false;
  double max_abs_error = 0.0;  ///< vs. the golden result
  /// Total simulated cycles of the run (the report's cycles_by_outcome).
  std::uint64_t cycles = 0;
  /// Cycles from the first OS ECC interrupt to the end of the first
  /// recovery-path event after it (log drain, ABFT correction, rollback).
  /// Negative when not measured (CampaignOptions::measure_latency off) or
  /// when no interrupt fired.
  double interrupt_to_recovery_cycles = -1.0;
  /// Sealed provenance ledger of the trial (CampaignOptions::lineage);
  /// empty when lineage is off.
  std::vector<obs::LineageFault> lineage_faults;
  std::vector<obs::LineageEvent> lineage_events;
  std::string_view lineage_terminal;  ///< sealed outcome label; "" = off
};

/// A fraction of trials with its Wilson score interval.
struct Rate {
  std::uint64_t count = 0;
  std::uint64_t total = 0;
  double fraction = 0.0;
  double wilson_lo = 0.0;
  double wilson_hi = 0.0;
};

struct CampaignResult {
  CampaignOptions options;
  sim::RunMetrics golden;  ///< the fault-free reference run
  std::vector<TrialOutcome> trials;  ///< indexed by trial
  Rate corrected;
  Rate detected_uncorrected;
  Rate silent_data_corruption;
  Rate benign_masked;
  Rate recovered_by_recompute;
  Rate recovered_by_rollback;
  Rate unrecoverable;
  /// Trials whose fault never materialized (see TrialOutcome); the CI
  /// smoke gate requires this to be zero.
  std::uint64_t unclassified = 0;
  /// Trials that ended in Os::panic; the escalation stress gate requires
  /// this to be zero with the ladder on.
  std::uint64_t panicked_trials = 0;
  /// Ledger reconciliation verdict (filled by run_campaign when
  /// options.lineage is set; see reconcile_lineage).
  struct LineageSummary {
    bool enabled = false;
    bool ok = false;
    std::uint64_t faults = 0;          ///< lineage records across all trials
    std::uint64_t orphans = 0;         ///< records without a resolution
    std::uint64_t double_counted = 0;  ///< records resolved more than once
    std::uint64_t exposed_dropped = 0; ///< OS log drops (storm overload)
    /// Resolutions by stage, indexed like LineageStage (only the
    /// is_resolution() slots are ever nonzero).
    std::array<std::uint64_t, 16> resolutions{};
    /// Per-trial terminal labels tallied by Outcome; the reconciliation
    /// invariant demands equality with the Rate counts.
    std::array<std::uint64_t, kAllOutcomes.size()> terminals{};
    std::vector<std::string> errors;  ///< human-readable hard errors
  };
  LineageSummary lineage;

  [[nodiscard]] const Rate& rate(Outcome o) const;
};

struct Interval {
  double lo = 0.0;
  double hi = 1.0;
};

/// Wilson score interval for k successes in n trials at critical value z
/// (1.96 = 95%). Well-behaved at k = 0 and k = n, unlike the normal
/// approximation.
[[nodiscard]] Interval wilson_interval(std::uint64_t k, std::uint64_t n,
                                       double z = 1.96);

/// Pure classification rule applied to each trial (unit-testable).
/// `errors_corrected` is the sum of ECC- and ABFT-corrected errors;
/// `recomputes`/`rollbacks` are the trial's successful ladder recoveries.
/// Precedence: a panic or unrepaired failure dominates, then wrong output,
/// then rollback > recompute > element correction (the deepest tier that
/// fired names the outcome), then benign.
[[nodiscard]] Outcome classify(abft::FtStatus status, bool output_correct,
                               bool panicked, std::uint64_t errors_corrected,
                               std::uint64_t recomputes = 0,
                               std::uint64_t rollbacks = 0);

using Progress = std::function<void(std::size_t done, std::size_t total)>;

/// The fault-free reference run every trial is judged against.
struct GoldenRun {
  sim::RunMetrics metrics;
  std::vector<double> result;
  std::uint64_t total_refs = 0;
};

/// Resolve CampaignOptions::chunk: the actual trials-per-chunk the pool
/// and the campaignd shard supervisor use (>= 1, deterministic for fixed
/// options).
[[nodiscard]] std::size_t resolve_chunk(std::size_t chunk, std::size_t trials,
                                        unsigned workers);

/// Execute the fault-free reference run for `opt`: the result and reference
/// count every trial of the campaign is measured against.
[[nodiscard]] GoldenRun run_golden(const CampaignOptions& opt);

/// Run ONE trial of the campaign: everything trial `index` needs is
/// derived from opt.campaign_seed ^ index plus the shared golden run, so
/// any worker (thread, forked shard process, resumed sweep) reproduces
/// bit-identical deterministic fields for the same index.
[[nodiscard]] TrialOutcome run_trial(const CampaignOptions& opt,
                                     const GoldenRun& golden,
                                     std::uint32_t index);

/// Run the campaign: options.trials independent trials against `golden`
/// on max(1, options.threads) threads. `progress` (optional) is invoked
/// under a lock after each finished trial.
[[nodiscard]] CampaignResult run_campaign(const CampaignOptions& opt,
                                          const GoldenRun& golden,
                                          const Progress& progress = {});

/// Convenience: run_golden + run_campaign in one call.
[[nodiscard]] CampaignResult run_campaign(const CampaignOptions& opt,
                                          const Progress& progress = {});

/// One JSON object per line, deterministic fields only (see TrialOutcome).
void write_trial_jsonl(std::FILE* f, const CampaignOptions& opt,
                       const TrialOutcome& t);

/// The same record as write_trial_jsonl, returned as one newline-free
/// string (the campaignd workers ship lines over a pipe instead of a
/// FILE*).
[[nodiscard]] std::string trial_jsonl_line(const CampaignOptions& opt,
                                           const TrialOutcome& t);

/// The keystone cross-check (ISSUE 6): verify that the per-trial ledgers
/// partition 1:1 into the outcome taxonomy -- every injected fault has
/// exactly one lineage record with exactly one hardware resolution, every
/// trial sealed with the outcome the classifier assigned, and the sealed
/// terminal counts equal the Rate counts computed by the independent
/// tallying code. Any orphaned or double-counted record is reported in
/// `errors` (and makes ok false). Pure function of `result`; run_campaign
/// calls it automatically when options.lineage is set.
[[nodiscard]] CampaignResult::LineageSummary reconcile_lineage(
    const CampaignResult& result);

/// Stream one trial's ledger as JSONL: one object per fault record (its
/// stage events inlined), then one trial-scope summary object.
/// tools/forensics.py `canon` merges and sorts ledgers for determinism
/// diffing.
void write_lineage_jsonl(std::FILE* f, const CampaignOptions& opt,
                         const TrialOutcome& t);

/// write_lineage_jsonl's records as a string (each line '\n'-terminated;
/// empty when the trial has no ledger).
[[nodiscard]] std::string lineage_jsonl_lines(const CampaignOptions& opt,
                                              const TrialOutcome& t);

}  // namespace abftecc::campaign

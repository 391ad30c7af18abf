// Tests for the campaign-as-a-service subsystem (src/campaignd) and the
// mergeable campaign::Accumulator it folds through:
//   * Accumulator merge algebra: order-independent, bit-exact, JSON
//     round-trip;
//   * exhaustive SECDED(72,64) enumeration: exact CI-free counts,
//     identical for any thread count;
//   * JobSpec wire round-trip and the checkpoint fingerprint;
//   * ChunkRecord serialization and the Fletcher-64 checkpoint store
//     (tamper and foreign-manifest rejection);
//   * the forked-worker shard supervisor: byte-identical to the
//     in-process pool, rescues chunks from a SIGKILL'd worker, and
//     resumes an aborted sweep from its checkpoint byte-identically;
//   * the Unix-socket daemon end to end (submit/wait/results/shutdown),
//     including the protocol-2 telemetry verbs: the rich ping, the
//     `metrics` OpenMetrics scrape, and the `subscribe` event stream.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/accumulator.hpp"
#include "campaign/campaign.hpp"
#include "campaign/exhaustive.hpp"
#include "campaignd/checkpoint.hpp"
#include "campaignd/client.hpp"
#include "campaignd/protocol.hpp"
#include "campaignd/server.hpp"
#include "campaignd/shard.hpp"
#include "obs/jsonv.hpp"

namespace abftecc::campaignd {
namespace {

using campaign::Accumulator;
using campaign::CampaignOptions;
using campaign::CampaignResult;
using campaign::GoldenRun;
using campaign::Outcome;
using campaign::TrialOutcome;

/// Small inputs so a trial costs milliseconds, not seconds.
CampaignOptions tiny_options() {
  CampaignOptions opt;
  opt.kernel = sim::Kernel::kDgemm;
  opt.platform.strategy = sim::Strategy::kPartialChipkillSecded;
  opt.platform.dgemm_dim = 48;
  opt.platform.cholesky_dim = 48;
  opt.platform.cg_dim = 96;
  opt.platform.cg_iterations = 2;
  opt.platform.hpl_dim = 48;
  opt.trials = 24;
  opt.threads = 2;
  opt.campaign_seed = 17;
  return opt;
}

/// Scratch directory removed on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/abftecc-campaignd-XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::vector<TrialOutcome> run_all_trials(const CampaignOptions& opt,
                                         const GoldenRun& golden) {
  std::vector<TrialOutcome> trials;
  for (std::size_t i = 0; i < opt.trials; ++i)
    trials.push_back(
        campaign::run_trial(opt, golden, static_cast<std::uint32_t>(i)));
  return trials;
}

/// Fields of the accumulator that are part of the byte-determinism
/// surface.
void expect_deterministic_fields_equal(const Accumulator& a,
                                       const Accumulator& b) {
  EXPECT_EQ(a.trials(), b.trials());
  for (Outcome o : campaign::kAllOutcomes) {
    EXPECT_EQ(a.outcome_count(o), b.outcome_count(o));
    // cycles_by_outcome
    EXPECT_EQ(a.cost(o).trials, b.cost(o).trials);
    EXPECT_EQ(a.cost(o).sum_cycles, b.cost(o).sum_cycles);
    EXPECT_EQ(a.cost(o).max_cycles, b.cost(o).max_cycles);
  }
  EXPECT_EQ(a.latency_count(), b.latency_count());
  EXPECT_EQ(a.latency_sum(), b.latency_sum());
  EXPECT_EQ(a.latency_max(), b.latency_max());
  for (std::size_t i = 0; i < Accumulator::kLatencyBuckets; ++i)
    EXPECT_EQ(a.latency_bucket(i), b.latency_bucket(i));
  EXPECT_EQ(a.unclassified(), b.unclassified());
  EXPECT_EQ(a.panicked(), b.panicked());
  EXPECT_EQ(a.injected(), b.injected());
  EXPECT_EQ(a.exposed_dropped(), b.exposed_dropped());
  EXPECT_EQ(a.max_abs_error(), b.max_abs_error());
  const auto la = a.lineage_summary();
  const auto lb = b.lineage_summary();
  EXPECT_EQ(la.ok, lb.ok);
  EXPECT_EQ(la.faults, lb.faults);
  EXPECT_EQ(la.orphans, lb.orphans);
  EXPECT_EQ(la.double_counted, lb.double_counted);
}

// --------------------------------------------------------- accumulator --

TEST(Accumulator, MergeIsOrderIndependent) {
  CampaignOptions opt = tiny_options();
  opt.trials = 12;
  opt.lineage = true;
  const GoldenRun golden = campaign::run_golden(opt);
  const std::vector<TrialOutcome> trials = run_all_trials(opt, golden);

  Accumulator sequential(opt);
  for (const auto& t : trials) sequential.add(t);

  // Three partials folded in every arrival order a shard race could
  // produce must match the sequential fold bit-exactly.
  Accumulator parts[3] = {Accumulator(opt), Accumulator(opt),
                          Accumulator(opt)};
  for (std::size_t i = 0; i < trials.size(); ++i)
    parts[i % 3].add(trials[i]);
  const int orders[][3] = {{0, 1, 2}, {2, 1, 0}, {1, 0, 2}};
  for (const auto& order : orders) {
    Accumulator merged(opt);
    for (int idx : order) merged.merge(parts[idx]);
    EXPECT_TRUE(merged == sequential);
    EXPECT_EQ(merged.to_json(), sequential.to_json());
  }
}

TEST(Accumulator, JsonRoundTripIsBitExact) {
  CampaignOptions opt = tiny_options();
  opt.trials = 8;
  opt.lineage = true;
  opt.measure_latency = true;
  const GoldenRun golden = campaign::run_golden(opt);
  Accumulator acc(opt);
  for (const auto& t : run_all_trials(opt, golden)) acc.add(t);

  const std::string json = acc.to_json();
  std::string error;
  const auto parsed = obs::json_parse(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  Accumulator back;
  ASSERT_TRUE(back.from_json(*parsed, &error)) << error;
  EXPECT_TRUE(back == acc);
  EXPECT_EQ(back.to_json(), json);
}

TEST(Accumulator, NonFiniteMaxAbsErrorSurvivesJsonRoundTrip) {
  // An exposed fault can blow max_abs_error up to infinity; the sharded/
  // checkpoint path round-trips the accumulator through JSON, where the
  // writer encodes non-finite doubles as string sentinels. Those must
  // parse back to the same value or a sharded sweep silently
  // underreports the error magnitude relative to the in-process path.
  const Accumulator empty(tiny_options());
  std::string json = empty.to_json();
  const std::string needle = "\"max_abs_error\":0";
  const std::size_t pos = json.find(needle);
  ASSERT_NE(pos, std::string::npos) << json;
  json.replace(pos, needle.size(), "\"max_abs_error\":\"Infinity\"");

  std::string error;
  const auto parsed = obs::json_parse(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  Accumulator back;
  ASSERT_TRUE(back.from_json(*parsed, &error)) << error;
  EXPECT_NE(back.to_json().find("\"max_abs_error\":\"Infinity\""),
            std::string::npos)
      << back.to_json();
}

TEST(Accumulator, OfMatchesManualFold) {
  CampaignOptions opt = tiny_options();
  opt.trials = 6;
  const GoldenRun golden = campaign::run_golden(opt);
  const std::vector<TrialOutcome> trials = run_all_trials(opt, golden);
  Accumulator manual(opt);
  for (const auto& t : trials) manual.add(t);
  EXPECT_TRUE(Accumulator::of(opt, trials) == manual);
}

// ---------------------------------------------------------- exhaustive --

TEST(Exhaustive, CoversFullSpaceWithExactCounts) {
  campaign::exhaustive::Options ex;
  ex.words = 4;
  ex.seed = 7;
  ex.threads = 1;
  const auto single = campaign::exhaustive::run(ex);
  ex.threads = 3;
  const auto multi = campaign::exhaustive::run(ex);

  // Hsiao SECDED(72,64) analytic guarantees: every 1-bit flip corrects
  // to the exact original word, every 2-bit flip is detected
  // uncorrectable. Counts are exact -- no sampling, no intervals.
  EXPECT_EQ(single.counts.singles_total,
            ex.words * campaign::exhaustive::kSinglesPerWord);
  EXPECT_EQ(single.counts.singles_corrected_exact,
            single.counts.singles_total);
  EXPECT_EQ(single.counts.singles_miscorrected, 0u);
  EXPECT_EQ(single.counts.singles_detected, 0u);
  EXPECT_EQ(single.counts.singles_missed, 0u);
  EXPECT_EQ(single.counts.doubles_total,
            ex.words * campaign::exhaustive::kDoublesPerWord);
  EXPECT_EQ(single.counts.doubles_detected, single.counts.doubles_total);
  EXPECT_EQ(single.counts.doubles_miscorrected, 0u);
  EXPECT_EQ(single.counts.doubles_missed, 0u);
  EXPECT_EQ(single.counts.doubles_mutated, 0u);
  EXPECT_TRUE(single.ok());

  // The enumeration partitions the pattern space statically, so the
  // thread count cannot change a single count.
  EXPECT_TRUE(multi.counts == single.counts);
  EXPECT_EQ(multi.to_json(), single.to_json());
}

TEST(Exhaustive, ShouldAbortStopsTheSweepEarly) {
  campaign::exhaustive::Options ex;
  ex.words = 64;
  ex.seed = 7;
  ex.threads = 2;
  std::uint64_t calls = 0;
  const auto r = campaign::exhaustive::run(
      ex, /*progress=*/{},
      [&] { return ++calls >= 4; });  // hooks are serialized: no lock needed
  EXPECT_TRUE(r.aborted);
  // The abort lands within a word or two of the trigger (each worker may
  // finish the word it already claimed), far short of the full space.
  EXPECT_LT(r.counts.singles_total,
            ex.words * campaign::exhaustive::kSinglesPerWord);
  EXPECT_FALSE(r.ok());

  // A sweep nobody aborts reports aborted == false.
  ex.words = 2;
  EXPECT_FALSE(campaign::exhaustive::run(ex).aborted);
}

// ------------------------------------------------------------ protocol --

TEST(Protocol, JobSpecRoundTripsThroughCanonicalJson) {
  JobSpec spec;
  spec.name = "nightly-sweep";
  spec.shards = 7;
  spec.options.kernel = sim::Kernel::kCg;
  spec.options.trials = 100000;
  spec.options.campaign_seed = 99;
  spec.options.chunk = 64;
  spec.options.lineage = true;
  spec.options.fault.kind = campaign::FaultKind::kChipKill;
  spec.options.fault.count = 2;
  spec.options.fault.storm_all_ranges = true;
  spec.options.platform.strategy = sim::Strategy::kWholeSecded;
  spec.options.platform.ladder = true;
  spec.options.platform.seed = 1234;
  spec.exhaustive_options.words = 3;

  std::string error;
  const auto parsed = obs::json_parse(job_to_json(spec), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  JobSpec back;
  ASSERT_TRUE(job_from_json(*parsed, &back, &error)) << error;
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.shards, spec.shards);
  EXPECT_EQ(back.options.kernel, spec.options.kernel);
  EXPECT_EQ(back.options.trials, spec.options.trials);
  EXPECT_EQ(back.options.campaign_seed, spec.options.campaign_seed);
  EXPECT_EQ(back.options.chunk, spec.options.chunk);
  EXPECT_EQ(back.options.lineage, spec.options.lineage);
  EXPECT_EQ(back.options.fault.kind, spec.options.fault.kind);
  EXPECT_EQ(back.options.fault.count, spec.options.fault.count);
  EXPECT_EQ(back.options.fault.storm_all_ranges,
            spec.options.fault.storm_all_ranges);
  EXPECT_EQ(back.options.platform.strategy, spec.options.platform.strategy);
  EXPECT_EQ(back.options.platform.ladder, spec.options.platform.ladder);
  EXPECT_EQ(back.options.platform.seed, spec.options.platform.seed);
  EXPECT_EQ(back.exhaustive_options.words, spec.exhaustive_options.words);
  // The round-trip is canonical: re-serializing gives the same bytes.
  EXPECT_EQ(job_to_json(back), job_to_json(spec));
}

TEST(Protocol, FingerprintIgnoresLabelButPinsResults) {
  JobSpec a;
  a.name = "alpha";
  JobSpec b = a;
  b.name = "beta";
  EXPECT_EQ(job_fingerprint(a), job_fingerprint(b));
  b.options.campaign_seed ^= 1;
  EXPECT_NE(job_fingerprint(a), job_fingerprint(b));
  b = a;
  b.options.fault.kind = campaign::FaultKind::kChipKill;
  EXPECT_NE(job_fingerprint(a), job_fingerprint(b));
}

// ---------------------------------------------------------- checkpoint --

ChunkRecord make_chunk(const CampaignOptions& opt, const GoldenRun& golden,
                       std::uint32_t id, std::uint64_t begin,
                       std::uint64_t end) {
  ChunkRecord rec;
  rec.id = id;
  rec.begin = begin;
  rec.end = end;
  rec.acc = Accumulator(opt);
  for (std::uint64_t i = begin; i < end; ++i) {
    const TrialOutcome t =
        campaign::run_trial(opt, golden, static_cast<std::uint32_t>(i));
    rec.acc.add(t);
    rec.trial_lines.push_back(campaign::trial_jsonl_line(opt, t));
  }
  return rec;
}

TEST(Checkpoint, ChunkRecordRoundTrips) {
  CampaignOptions opt = tiny_options();
  const GoldenRun golden = campaign::run_golden(opt);
  const ChunkRecord rec = make_chunk(opt, golden, 3, 6, 9);
  ChunkRecord back;
  std::string error;
  ASSERT_TRUE(chunk_from_json(chunk_to_json(rec), &back, &error)) << error;
  EXPECT_EQ(back.id, rec.id);
  EXPECT_EQ(back.begin, rec.begin);
  EXPECT_EQ(back.end, rec.end);
  EXPECT_TRUE(back.acc == rec.acc);
  EXPECT_EQ(back.trial_lines, rec.trial_lines);
  EXPECT_EQ(chunk_to_json(back), chunk_to_json(rec));
}

TEST(Checkpoint, StoreAndReloadSurvivesReopen) {
  TempDir td;
  CampaignOptions opt = tiny_options();
  const GoldenRun golden = campaign::run_golden(opt);
  std::string error;
  CampaignCheckpoint ck;
  ASSERT_TRUE(ck.open(td.path + "/ck", 0xabcdef, 4, 12, 3, &error)) << error;
  ASSERT_TRUE(ck.store(make_chunk(opt, golden, 0, 0, 3), &error)) << error;
  ASSERT_TRUE(ck.store(make_chunk(opt, golden, 2, 6, 9), &error)) << error;

  CampaignCheckpoint again;
  ASSERT_TRUE(again.open(td.path + "/ck", 0xabcdef, 4, 12, 3, &error))
      << error;
  EXPECT_EQ(again.loaded().size(), 2u);
  EXPECT_TRUE(again.has(0));
  EXPECT_FALSE(again.has(1));
  EXPECT_TRUE(again.has(2));
  EXPECT_EQ(again.loaded().at(2).begin, 6u);
  EXPECT_TRUE(again.loaded().at(0).acc ==
              make_chunk(opt, golden, 0, 0, 3).acc);
}

TEST(Checkpoint, TamperedChunkIsRejected) {
  TempDir td;
  CampaignOptions opt = tiny_options();
  const GoldenRun golden = campaign::run_golden(opt);
  std::string error;
  CampaignCheckpoint ck;
  ASSERT_TRUE(ck.open(td.path + "/ck", 1, 4, 12, 3, &error)) << error;
  ASSERT_TRUE(ck.store(make_chunk(opt, golden, 1, 3, 6), &error)) << error;

  // Flip one payload byte; the Fletcher-64 trailer must catch it.
  const std::string file = td.path + "/ck/chunk-000001.json";
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekp(30);
  f.put('~');
  f.close();

  CampaignCheckpoint again;
  EXPECT_FALSE(again.open(td.path + "/ck", 1, 4, 12, 3, &error));
  EXPECT_NE(error.find("Fletcher"), std::string::npos) << error;
}

TEST(Checkpoint, ForeignManifestIsRejected) {
  TempDir td;
  std::string error;
  CampaignCheckpoint ck;
  ASSERT_TRUE(ck.open(td.path + "/ck", 111, 4, 12, 3, &error)) << error;
  // Different fingerprint, and separately different chunk geometry.
  CampaignCheckpoint other;
  EXPECT_FALSE(other.open(td.path + "/ck", 222, 4, 12, 3, &error));
  EXPECT_NE(error.find("manifest"), std::string::npos) << error;
  EXPECT_FALSE(other.open(td.path + "/ck", 111, 6, 12, 2, &error));
  EXPECT_NE(error.find("manifest"), std::string::npos) << error;
}

// --------------------------------------------------------------- shard --

TEST(Shard, ByteIdenticalToInProcessPool) {
  CampaignOptions opt = tiny_options();
  opt.lineage = true;
  opt.chunk = 3;
  // Detected-uncorrectable faults raise interrupts, so the cycle-valued
  // latency histogram has samples to compare.
  opt.fault.kind = campaign::FaultKind::kDoubleBit;
  opt.measure_latency = true;
  const GoldenRun golden = campaign::run_golden(opt);

  const CampaignResult res = campaign::run_campaign(opt, golden);
  std::vector<std::string> expected;
  for (const auto& t : res.trials)
    expected.push_back(campaign::trial_jsonl_line(opt, t));
  const Accumulator baseline = Accumulator::of(opt, res.trials);

  ShardOptions so;
  so.shards = 3;
  const ShardOutcome out = run_sharded(opt, golden, so);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.chunks_executed, out.chunks_total);
  EXPECT_EQ(out.trial_lines, expected);
  EXPECT_GT(baseline.latency_count(), 0u);
  expect_deterministic_fields_equal(out.acc, baseline);
}

/// PIDs whose parent is this process (the forked shard workers).
std::vector<pid_t> child_pids() {
  std::vector<pid_t> kids;
  const pid_t self = getpid();
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string name = entry.path().filename();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream stat(entry.path() / "stat");
    std::string content((std::istreambuf_iterator<char>(stat)),
                        std::istreambuf_iterator<char>());
    // Field 4 (ppid) follows the parenthesized comm, which may itself
    // contain spaces -- parse from the last ')'.
    const std::size_t paren = content.rfind(')');
    if (paren == std::string::npos) continue;
    std::istringstream rest(content.substr(paren + 1));
    std::string state;
    pid_t ppid = 0;
    rest >> state >> ppid;
    if (ppid == self) kids.push_back(static_cast<pid_t>(std::stol(name)));
  }
  return kids;
}

TEST(Shard, SigkilledWorkerChunksAreRescued) {
  CampaignOptions opt = tiny_options();
  opt.trials = 30;
  opt.chunk = 2;
  const GoldenRun golden = campaign::run_golden(opt);

  const CampaignResult res = campaign::run_campaign(opt, golden);
  std::vector<std::string> expected;
  for (const auto& t : res.trials)
    expected.push_back(campaign::trial_jsonl_line(opt, t));

  std::size_t done = 0;
  bool killed = false;
  ShardOptions so;
  so.shards = 2;
  so.progress = [&](std::size_t d, std::size_t) { done = d; };
  // SIGKILL one live worker mid-sweep from the supervisor's own service
  // hook; its in-flight chunk must be requeued and the slot respawned.
  so.service = [&] {
    if (killed || done < 4) return;
    const std::vector<pid_t> kids = child_pids();
    if (kids.empty()) return;
    killed = true;
    kill(kids.front(), SIGKILL);
  };
  const ShardOutcome out = run_sharded(opt, golden, so);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_TRUE(killed);
  EXPECT_GE(out.workers_died, 1u);
  EXPECT_GT(out.workers_spawned, so.shards);
  EXPECT_EQ(out.trial_lines, expected);
  expect_deterministic_fields_equal(out.acc,
                                    Accumulator::of(opt, res.trials));
}

TEST(Shard, AbortedSweepResumesByteIdentical) {
  TempDir td;
  CampaignOptions opt = tiny_options();
  opt.trials = 30;
  opt.chunk = 2;
  opt.lineage = true;
  const GoldenRun golden = campaign::run_golden(opt);

  const CampaignResult res = campaign::run_campaign(opt, golden);
  std::vector<std::string> expected;
  for (const auto& t : res.trials)
    expected.push_back(campaign::trial_jsonl_line(opt, t));

  JobSpec fp;
  fp.name.clear();
  fp.shards = 0;
  fp.options = opt;
  const std::uint64_t fingerprint = job_fingerprint(fp);

  // First pass: abandon the sweep partway. Finished chunks stay behind,
  // Fletcher-verified, in the checkpoint directory.
  std::size_t done = 0;
  ShardOptions first;
  first.shards = 2;
  first.checkpoint_dir = td.path + "/ck";
  first.fingerprint = fingerprint;
  first.progress = [&](std::size_t d, std::size_t) { done = d; };
  first.should_abort = [&] { return done >= 10; };
  const ShardOutcome interrupted = run_sharded(opt, golden, first);
  EXPECT_FALSE(interrupted.ok);
  EXPECT_TRUE(interrupted.aborted);

  std::size_t survived = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(td.path + "/ck"))
    if (entry.path().filename().string().rfind("chunk-", 0) == 0) ++survived;
  ASSERT_GT(survived, 0u);
  ASSERT_LT(survived, 15u);

  // Second pass over the same directory -- different shard count on
  // purpose -- must replay the survivors and complete byte-identically
  // to the uninterrupted in-process baseline.
  ShardOptions second;
  second.shards = 3;
  second.checkpoint_dir = td.path + "/ck";
  second.fingerprint = fingerprint;
  const ShardOutcome resumed = run_sharded(opt, golden, second);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.chunks_resumed, survived);
  EXPECT_EQ(resumed.chunks_executed + resumed.chunks_resumed,
            resumed.chunks_total);
  EXPECT_EQ(resumed.trial_lines, expected);
  expect_deterministic_fields_equal(resumed.acc,
                                    Accumulator::of(opt, res.trials));

  // A different job must refuse to resume from this checkpoint.
  CampaignOptions foreign = opt;
  foreign.campaign_seed ^= 1;
  JobSpec ffp = fp;
  ffp.options = foreign;
  ShardOptions third = second;
  third.fingerprint = job_fingerprint(ffp);
  const ShardOutcome refused = run_sharded(foreign, golden, third);
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("manifest"), std::string::npos)
      << refused.error;
}

// -------------------------------------------------------------- server --

TEST(Server, EndToEndOverUnixSocket) {
  TempDir td;
  const std::string sock = td.path + "/sock";
  const pid_t daemon = fork();
  ASSERT_NE(daemon, -1);
  if (daemon == 0) {
    ServerOptions so;
    so.socket_path = sock;
    so.state_dir = td.path + "/state";
    so.default_shards = 2;
    Server server(so);
    std::string error;
    if (!server.start(&error)) _exit(3);
    _exit(server.run());
  }

  Client client;
  std::string error;
  bool connected = false;
  for (int i = 0; i < 200 && !connected; ++i) {
    connected = client.connect(sock, &error);
    if (!connected) usleep(25 * 1000);
  }
  ASSERT_TRUE(connected) << error;
  EXPECT_TRUE(client.ping(&error)) << error;

  // The envelope is versioned: replies carry the daemon's protocol number
  // and a request from a foreign protocol is refused with a
  // self-describing error rather than answered in a shape the sender may
  // not parse.
  {
    const auto pong = client.call(R"({"protocol":2,"op":"ping"})", &error);
    ASSERT_TRUE(pong.has_value()) << error;
    EXPECT_EQ(pong->u64("protocol"), kProtocolVersion);
    const auto foreign =
        client.call(R"({"protocol":999,"op":"ping"})", &error);
    ASSERT_TRUE(foreign.has_value()) << error;
    EXPECT_FALSE(foreign->boolean("ok"));
    EXPECT_NE(std::string(foreign->str("error")).find("protocol mismatch"),
              std::string::npos)
        << foreign->str("error");
  }

  // The protocol-2 ping is a one-line health summary: daemon identity,
  // uptime, and the job-table tallies.
  {
    const auto info = client.ping_info(&error);
    ASSERT_TRUE(info.has_value()) << error;
    EXPECT_EQ(info->str("version"), kServerVersion);
    EXPECT_GE(info->num("uptime_s", -1.0), 0.0);
    EXPECT_EQ(info->u64("jobs"), 0u);
    EXPECT_EQ(info->u64("queued"), 0u);
    EXPECT_EQ(info->u64("running"), 0u);
    EXPECT_EQ(info->u64("done"), 0u);
    EXPECT_EQ(info->u64("failed"), 0u);
  }

  JobSpec spec;
  spec.name = "e2e";
  spec.options = tiny_options();
  spec.options.trials = 8;
  spec.options.chunk = 2;
  spec.shards = 2;
  const auto id = client.submit(spec, &error);
  ASSERT_TRUE(id.has_value()) << error;

  // Live subscription on a second connection: the stream must deliver at
  // least one progress/done event and terminate with done:true carrying
  // the final job state.
  {
    Client watcher;
    std::string werror;
    ASSERT_TRUE(watcher.connect(sock, &werror)) << werror;
    std::size_t events = 0;
    std::string last_state;
    std::uint64_t last_done_trials = 0;
    const auto fin = watcher.subscribe(
        *id,
        [&](const obs::JsonValue& ev) {
          ++events;
          last_state = ev.str("state");
          last_done_trials = ev.u64("trials_done");
          EXPECT_EQ(ev.str("id"), *id);
          EXPECT_EQ(ev.u64("trials_total"), 8u);
        },
        &werror);
    ASSERT_TRUE(fin.has_value()) << werror;
    EXPECT_TRUE(fin->boolean("done"));
    EXPECT_EQ(fin->str("event"), "done");
    EXPECT_GE(events, 1u);
    EXPECT_EQ(last_state, "done");
    EXPECT_EQ(last_done_trials, 8u);
  }

  const auto done = client.wait(*id, &error);
  ASSERT_TRUE(done.has_value()) << error;
  EXPECT_EQ(done->str("state"), "done");
  EXPECT_EQ(done->u64("trials_done"), 8u);

  // Subscribing to an already-terminal job yields exactly one final event.
  {
    std::size_t events = 0;
    const auto fin = client.subscribe(
        *id, [&](const obs::JsonValue&) { ++events; }, &error);
    ASSERT_TRUE(fin.has_value()) << error;
    EXPECT_TRUE(fin->boolean("done"));
    EXPECT_EQ(events, 1u);
    // An unknown job id is an error, not an empty stream.
    std::string suberr;
    EXPECT_FALSE(
        client.subscribe("job-does-not-exist", nullptr, &suberr).has_value());
    EXPECT_FALSE(suberr.empty());
  }

  // The spool holds the streamed per-trial JSONL: one line per trial.
  std::ifstream trials(std::string(done->str("trials_path")));
  ASSERT_TRUE(trials.good());
  std::size_t lines = 0;
  for (std::string line; std::getline(trials, line);)
    if (!line.empty()) ++lines;
  EXPECT_EQ(lines, 8u);

  JobSpec ex;
  ex.name = "e2e-exhaustive";
  ex.exhaustive = true;
  ex.exhaustive_options.words = 2;
  const auto exid = client.submit(ex, &error);
  ASSERT_TRUE(exid.has_value()) << error;
  const auto exdone = client.wait(*exid, &error);
  ASSERT_TRUE(exdone.has_value()) << error;
  EXPECT_EQ(exdone->str("state"), "done");

  const auto status = client.status(&error);
  ASSERT_TRUE(status.has_value()) << error;
  EXPECT_EQ(status->u64("done"), 2u);

  // The metrics verb returns both the OpenMetrics exposition (daemon
  // instruments plus per-job families) and the raw time-series rings.
  {
    const auto m = client.metrics(&error);
    ASSERT_TRUE(m.has_value()) << error;
    const std::string expo(m->str("exposition"));
    EXPECT_NE(expo.find("# TYPE campaignd_requests counter\n"),
              std::string::npos)
        << expo;
    EXPECT_NE(expo.find("campaignd_jobs_completed_total 2\n"),
              std::string::npos)
        << expo;
    EXPECT_NE(expo.find("# TYPE campaignd_job_trials_done gauge\n"),
              std::string::npos)
        << expo;
    EXPECT_NE(expo.find("name=\"e2e\""), std::string::npos) << expo;
    EXPECT_NE(expo.find("# TYPE campaignd_job_seconds histogram\n"),
              std::string::npos)
        << expo;
    ASSERT_GE(expo.size(), 6u);
    EXPECT_EQ(expo.substr(expo.size() - 6), "# EOF\n");
    const auto* series = m->find("series");
    ASSERT_NE(series, nullptr);
    EXPECT_EQ(series->str("schema"), "timeseries-v1");
  }

  // The refreshed ping reflects the finished jobs.
  {
    const auto info = client.ping_info(&error);
    ASSERT_TRUE(info.has_value()) << error;
    EXPECT_EQ(info->u64("jobs"), 2u);
    EXPECT_EQ(info->u64("done"), 2u);
    EXPECT_EQ(info->u64("failed"), 0u);
  }

  EXPECT_TRUE(client.shutdown_daemon(&error)) << error;
  int wstatus = 0;
  ASSERT_EQ(waitpid(daemon, &wstatus, 0), daemon);
  EXPECT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

TEST(Server, ClientRejectsDaemonSpeakingForeignProtocol) {
  // A pre-versioning daemon answers without a "protocol" member. The
  // client must fail the call with a clear mismatch error instead of
  // interpreting the reply. Fake such a daemon with a one-shot echo
  // server that answers every request line with an unversioned ok.
  TempDir td;
  const std::string sock = td.path + "/oldsock";
  const pid_t daemon = fork();
  ASSERT_NE(daemon, -1);
  if (daemon == 0) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (lfd < 0 ||
        ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(lfd, 1) != 0)
      _exit(3);
    const int cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd < 0) _exit(3);
    char c = 0;
    while (::read(cfd, &c, 1) == 1 && c != '\n') {
    }
    const char reply[] = "{\"ok\":true,\"op\":\"ping\"}\n";
    if (::write(cfd, reply, sizeof(reply) - 1) < 0) _exit(3);
    ::close(cfd);
    ::close(lfd);
    _exit(0);
  }

  Client client;
  std::string error;
  bool connected = false;
  for (int i = 0; i < 200 && !connected; ++i) {
    connected = client.connect(sock, &error);
    if (!connected) usleep(25 * 1000);
  }
  ASSERT_TRUE(connected) << error;
  EXPECT_FALSE(client.ping(&error));
  EXPECT_NE(error.find("protocol mismatch"), std::string::npos) << error;
  EXPECT_NE(error.find("protocol 0"), std::string::npos) << error;

  int wstatus = 0;
  ASSERT_EQ(waitpid(daemon, &wstatus, 0), daemon);
  EXPECT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

}  // namespace
}  // namespace abftecc::campaignd

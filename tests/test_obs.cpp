// Tests for the observability subsystem: JSON emission/validation, the
// metrics registry, the event tracer ring, and an end-to-end check that a
// single injected DRAM fault leaves the full cooperative chain -- inject,
// ECC decode, OS interrupt, error exposure, ABFT recovery -- in the trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "abft/ft_dgemm.hpp"
#include "abft/runtime.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "obs/json.hpp"
#include "obs/jsonv.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "os/os.hpp"
#include "sim/backend.hpp"
#include "sim/tap.hpp"

namespace abftecc::obs {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(Json, WriterProducesValidNestedDocument) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "histo \"quoted\"\nline");
  w.field("count", std::uint64_t{42});
  w.field("mean", 1.5);
  w.field("enabled", true);
  w.key("buckets");
  w.begin_array();
  w.value(1).value(2).value(3);
  w.end_array();
  w.key("nothing");
  w.null();
  w.end_object();
  EXPECT_TRUE(json_valid(w.str()));
  EXPECT_NE(w.str().find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(w.str().find("\\n"), std::string::npos);
}

TEST(Json, ValidatorRejectsMalformedInput) {
  EXPECT_TRUE(json_valid("{\"a\": [1, 2.5e3, null, true, \"x\"]}"));
  EXPECT_FALSE(json_valid(""));
  EXPECT_FALSE(json_valid("{"));
  EXPECT_FALSE(json_valid("{\"a\":}"));
  EXPECT_FALSE(json_valid("[1,]"));
  EXPECT_FALSE(json_valid("1 2"));
  EXPECT_FALSE(json_valid("{\"a\" 1}"));
  EXPECT_FALSE(json_valid("nul"));
}

TEST(Json, NonFiniteDoublesEmitNamedStrings) {
  // NaN/Inf have no JSON number form; emitting them as named strings keeps
  // the document parseable while preserving the kind and the sign.
  JsonWriter w;
  w.begin_object()
      .field("nan", std::numeric_limits<double>::quiet_NaN())
      .field("pinf", std::numeric_limits<double>::infinity())
      .field("ninf", -std::numeric_limits<double>::infinity())
      .field("finite", 2.5)
      .end_object();
  EXPECT_TRUE(json_valid(w.str()));
  EXPECT_NE(w.str().find("\"nan\":\"NaN\""), std::string::npos);
  EXPECT_NE(w.str().find("\"pinf\":\"Infinity\""), std::string::npos);
  EXPECT_NE(w.str().find("\"ninf\":\"-Infinity\""), std::string::npos);
  EXPECT_NE(w.str().find("\"finite\":2.5"), std::string::npos);
}

TEST(Json, NonFiniteStringSentinelsParseBackToDoubles) {
  // The reader half of the contract above: the named strings the writer
  // emits for NaN/Inf must map back to the doubles they stand for, or a
  // non-finite value silently collapses to the fallback on any
  // serialize/parse round trip (e.g. a checkpointed accumulator).
  JsonWriter w;
  w.begin_object()
      .field("nan", std::numeric_limits<double>::quiet_NaN())
      .field("pinf", std::numeric_limits<double>::infinity())
      .field("ninf", -std::numeric_limits<double>::infinity())
      .field("plain", std::string("Infinite"))
      .end_object();
  std::string error;
  const auto v = json_parse(w.str(), &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_TRUE(std::isnan(v->num("nan")));
  EXPECT_EQ(v->num("pinf"), std::numeric_limits<double>::infinity());
  EXPECT_EQ(v->num("ninf"), -std::numeric_limits<double>::infinity());
  // Only the exact sentinels map; other strings still hit the fallback.
  EXPECT_EQ(v->num("plain", -1.0), -1.0);
}

TEST(Json, EscapingHandlesControlAndBoundaryCharacters) {
  const std::string nasty = std::string("a\x01z") + '\0' + "\x1f\\\"\t\r\n";
  JsonWriter w;
  w.begin_object().field("s", nasty).end_object();
  EXPECT_TRUE(json_valid(w.str()));
  EXPECT_NE(w.str().find("\\u0001"), std::string::npos);
  EXPECT_NE(w.str().find("\\u0000"), std::string::npos);
  EXPECT_NE(w.str().find("\\u001f"), std::string::npos);
  EXPECT_NE(w.str().find("\\\\"), std::string::npos);
  EXPECT_NE(w.str().find("\\\""), std::string::npos);
  EXPECT_NE(w.str().find("\\t"), std::string::npos);
  EXPECT_NE(w.str().find("\\r"), std::string::npos);
  EXPECT_NE(w.str().find("\\n"), std::string::npos);
  // Round-trip sanity: no raw control bytes survive in the output.
  for (const char c : w.str())
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
}

TEST(Json, RawSplicesPreSerializedValue) {
  JsonWriter inner;
  inner.begin_object().field("x", 1).end_object();
  JsonWriter w;
  w.begin_object().key("nested").raw(inner.str()).field("y", 2).end_object();
  EXPECT_TRUE(json_valid(w.str()));
  EXPECT_EQ(w.str(), "{\"nested\":{\"x\":1},\"y\":2}");
}

// ------------------------------------------------------------- metrics --

TEST(Metrics, HistogramBucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  ASSERT_EQ(h.num_buckets(), 4u);  // 3 bounds + overflow
  h.observe(0.5);  // <= 1        -> bucket 0
  h.observe(1.0);  // == bound 0  -> bucket 0 (le semantics)
  h.observe(1.5);  //              -> bucket 1
  h.observe(2.0);  // == bound 1  -> bucket 1
  h.observe(4.0);  // == bound 2  -> bucket 2
  h.observe(4.5);  // > last      -> overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.max(), 4.5);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.5);
  EXPECT_DOUBLE_EQ(h.upper_bound(0), 1.0);
  EXPECT_TRUE(std::isinf(h.upper_bound(3)));
}

TEST(Metrics, ExponentialBoundsBuildGeometricLadder) {
  const auto bounds = Histogram::exponential_bounds(16.0, 2.0, 10);
  ASSERT_EQ(bounds.size(), 10u);
  EXPECT_DOUBLE_EQ(bounds.front(), 16.0);
  EXPECT_DOUBLE_EQ(bounds.back(), 16.0 * 512.0);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
}

TEST(Metrics, RegistryResetZeroesValuesButKeepsRegistrations) {
  Registry reg;
  Counter& c = reg.counter("test.counter");
  Gauge& g = reg.gauge("test.gauge");
  Histogram& h = reg.histogram("test.histo", {10.0});
  c.add(5);
  g.set(3.5);
  h.observe(7.0);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  // Cached references stay live and re-registration returns the same
  // instrument.
  c.add(2);
  EXPECT_EQ(reg.counter("test.counter").value(), 2u);
  EXPECT_EQ(&reg.counter("test.counter"), &c);
  EXPECT_EQ(&reg.histogram("test.histo", {}), &h);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(Metrics, HistogramOverflowBucketAccounting) {
  Histogram h({8.0});
  ASSERT_EQ(h.num_buckets(), 2u);  // 1 bound + overflow
  h.observe(8.0);           // == bound -> bucket 0 (le semantics)
  h.observe(8.0000001);     // just past the last bound -> overflow
  h.observe(1e12);          // far overflow
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.count(), 3u);  // overflow observations still count/sum/max
  EXPECT_DOUBLE_EQ(h.max(), 1e12);
  EXPECT_DOUBLE_EQ(h.sum(), 8.0 + 8.0000001 + 1e12);
  EXPECT_TRUE(std::isinf(h.upper_bound(1)));
  h.reset();
  EXPECT_EQ(h.bucket_count(1), 0u);
  EXPECT_EQ(h.count(), 0u);
  // A histogram with no bounds is a single overflow bucket: everything
  // lands there but the moments still accumulate.
  Histogram bare((std::vector<double>()));
  ASSERT_EQ(bare.num_buckets(), 1u);
  bare.observe(-3.0);
  bare.observe(42.0);
  EXPECT_EQ(bare.bucket_count(0), 2u);
  EXPECT_DOUBLE_EQ(bare.max(), 42.0);
  EXPECT_TRUE(std::isinf(bare.upper_bound(0)));
}

TEST(Metrics, RegistryResetPreservesRegistrationsAfterProfilerPublish) {
  // A profiler run publishes profile.* instruments into a registry;
  // reset() must zero them without forgetting the registrations, so the
  // next publish lands in the same instruments.
  PhaseProfiler prof;
  std::uint64_t clock = 0;
  prof.set_sampler([&] {
    return CounterSample{clock, clock / 10, 2 * clock,
                         static_cast<double>(clock)};
  });
  prof.start();
  clock = 100;
  prof.enter(Phase::kEncode);
  clock = 250;
  prof.exit();
  prof.stop();

  Registry reg;
  prof.publish(reg);
  const std::size_t registered = reg.size();
  EXPECT_GT(registered, 0u);
  EXPECT_EQ(reg.counter("profile.encode.cycles").value(), 150u);
  EXPECT_EQ(reg.counter("profile.total.cycles").value(), 100u);

  reg.reset();
  EXPECT_EQ(reg.size(), registered);  // registrations survive
  EXPECT_EQ(reg.counter("profile.encode.cycles").value(), 0u);
  EXPECT_EQ(reg.size(), registered);  // lookups above did not re-register

  prof.publish(reg);  // a fresh publish repopulates the same instruments
  EXPECT_EQ(reg.size(), registered);
  EXPECT_EQ(reg.counter("profile.encode.cycles").value(), 150u);
  EXPECT_EQ(reg.counter("profile.encode.instructions").value(), 300u);
}

TEST(Metrics, MergeInNodeOrderEqualsOneSerialRegistry) {
  // Two nodes recording into one registry, versus one registry each folded
  // in node order (how the parallel paper sweep combines its cells).
  const auto bounds = Histogram::exponential_bounds(10.0, 10.0, 3);
  auto node_a = [&](Registry& r) {
    r.counter("memsim.refs").add(3);
    r.gauge("abft.verify_seconds").add(0.5);
    r.histogram("memsim.stall", bounds).observe(5);
    r.histogram("memsim.stall", bounds).observe(2000);
  };
  auto node_b = [&](Registry& r) {
    r.counter("memsim.refs").add(4);
    r.counter("os.panics").add(1);
    r.histogram("memsim.stall", bounds).observe(50);
  };
  Registry serial;
  node_a(serial);
  node_b(serial);

  Registry a, b, folded;
  node_a(a);
  node_b(b);
  folded.merge(a);
  folded.merge(b);
  EXPECT_EQ(folded.to_json(), serial.to_json());
  EXPECT_EQ(folded.counter("memsim.refs").value(), 7u);
  const Histogram& h = folded.histogram("memsim.stall", bounds);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.max(), 2000.0);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow
}

TEST(Metrics, SnapshotAndJsonSinkAreWellFormed) {
  Registry reg;
  reg.counter("a.hits").add(3);
  reg.gauge("b.level").set(0.25);
  reg.histogram("c.lat", {1.0, 2.0}).observe(1.5);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "a.hits");
  EXPECT_EQ(snap.counters[0].second, 3u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].buckets.size(), 3u);
  EXPECT_TRUE(json_valid(reg.to_json()));
}

// -------------------------------------------------------------- tracer --

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer t(8);
  t.instant(EventKind::kFaultInject, 1, 0x40);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.recorded(), 0u);
}

TEST(Trace, RingWrapsOverwritingOldestAndCountsDrops) {
  Tracer t(4);
  t.enable();
  for (std::uint64_t i = 0; i < 10; ++i)
    t.instant(EventKind::kDemandMiss, 100 + i, 64 * i);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.recorded(), 10u);
  EXPECT_EQ(t.dropped(), 6u);
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Survivors are the newest four, oldest first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].seq, 6 + i);
    EXPECT_EQ(events[i].ts, 106 + i);
  }
}

std::vector<long long> extract_ts(const std::string& json) {
  std::vector<long long> out;
  std::size_t pos = 0;
  while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    out.push_back(std::strtoll(json.c_str() + pos, nullptr, 10));
  }
  return out;
}

TEST(Trace, ChromeTraceJsonIsValidAndMonotonic) {
  Tracer t(64);
  t.enable();
  // Record deliberately out of ts order: export must sort.
  t.instant(EventKind::kEccInterrupt, 500, 0x1000);
  t.complete(EventKind::kVerify, "ft_test.verify", 120, 30);
  t.instant(EventKind::kFaultInject, 100, 0x1000, 3);
  t.complete(EventKind::kRecover, "ft_test.recover", 400, 50, 0x1000);
  const std::string json = t.chrome_trace_json();
  EXPECT_TRUE(json_valid(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"fault.inject\""), std::string::npos);
  EXPECT_NE(json.find("\"ft_test.recover\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  const auto ts = extract_ts(json);
  ASSERT_EQ(ts.size(), 4u);
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
}

TEST(Trace, SetCapacityResizesAndClears) {
  Tracer t(4);
  t.enable();
  t.instant(EventKind::kPanic, 1);
  t.set_capacity(16);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.capacity(), 16u);
  t.instant(EventKind::kPanic, 2);
  EXPECT_EQ(t.size(), 1u);
}

TEST(Trace, RingIsAllocatedOnFirstRecordedEvent) {
  // Every private Session owns a tracer; one that never records must not
  // cost a ring, but it reports the configured capacity all along.
  Tracer t(4);
  EXPECT_EQ(t.capacity(), 4u);
  EXPECT_TRUE(t.snapshot().empty());
  EXPECT_TRUE(json_valid(t.chrome_trace_json()));
  t.enable();
  t.set_mask(~kind_bit(EventKind::kDemandMiss));
  t.instant(EventKind::kDemandMiss, 1, 0x40);  // masked: nothing recorded
  EXPECT_TRUE(t.snapshot().empty());
  EXPECT_EQ(t.capacity(), 4u);
  for (std::uint64_t i = 0; i < 6; ++i)
    t.instant(EventKind::kEccInterrupt, 10 + i, 0x80);
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().ts, 12u);
  EXPECT_EQ(t.dropped(), 2u);
  EXPECT_EQ(t.capacity(), 4u);
}

TEST(Trace, AppendInNodeOrderEqualsOneSerialRing) {
  // Node A overflows its own ring; node B does not. Appending the two
  // per-node rings must leave what one ring recording both would hold.
  auto node_a = [](Tracer& t) {
    for (std::uint64_t i = 0; i < 7; ++i)
      t.instant(EventKind::kDemandMiss, 100 + i, 64 * i);
  };
  auto node_b = [](Tracer& t) {
    t.instant(EventKind::kEccInterrupt, 5, 0x80);
    t.complete(EventKind::kVerify, "ft_test.verify", 6, 3);
  };
  Tracer serial(4), a(4), b(4), folded(4);
  for (Tracer* t : {&serial, &a, &b}) t->enable();
  node_a(serial);
  node_b(serial);
  node_a(a);
  node_b(b);
  folded.append(a);
  folded.append(b);
  EXPECT_EQ(folded.recorded(), serial.recorded());
  EXPECT_EQ(folded.dropped(), serial.dropped());
  EXPECT_EQ(folded.size(), serial.size());
  EXPECT_EQ(folded.chrome_trace_json(), serial.chrome_trace_json());
  const auto fs = folded.snapshot(), ss = serial.snapshot();
  ASSERT_EQ(fs.size(), ss.size());
  for (std::size_t i = 0; i < fs.size(); ++i) {
    EXPECT_EQ(fs[i].seq, ss[i].seq);
    EXPECT_EQ(fs[i].ts, ss[i].ts);
    EXPECT_EQ(fs[i].kind, ss[i].kind);
  }
}

// -------------------------------------------------- end-to-end chain --

bool has_kind(const std::vector<TraceEvent>& events, EventKind k) {
  return std::any_of(events.begin(), events.end(),
                     [&](const TraceEvent& e) { return e.kind == k; });
}

std::uint64_t line_of_kind(const std::vector<TraceEvent>& events,
                           EventKind k) {
  for (const auto& e : events)
    if (e.kind == k) return e.addr / 64;
  return ~std::uint64_t{0};
}

TEST(ObsIntegration, InjectedFaultLeavesFullCooperativeChainInTrace) {
  auto& tracer = default_tracer();
  auto& reg = default_registry();
  tracer.set_capacity(1 << 15);
  tracer.enable();
  reg.reset();

  memsim::MemorySystem sys(memsim::SystemConfig::scaled(8),
                           ecc::Scheme::kChipkill);
  os::Os osl(sys);
  abft::Runtime rt(&osl);
  sim::TapContext ctx(osl, sys);
  sim::SimBackend be(ctx, sys);
  fault::Injector inj(sys, osl);

  const std::size_t n = 32;
  Rng rng(11);
  auto input = [&](const char* name) {
    auto* p =
        static_cast<double*>(osl.malloc_plain(n * n * sizeof(double), name));
    const Matrix m = Matrix::random(n, n, rng);
    std::copy_n(m.data(), m.size(), p);
    return MatrixView(p, n, n, n);
  };
  const MatrixView a = input("A"), b = input("B");
  auto alloc = [&](std::size_t r, std::size_t c, const char* name) {
    void* p = osl.malloc_ecc(r * c * sizeof(double), ecc::Scheme::kSecded,
                             name, /*abft_protected=*/true);
    return MatrixView(static_cast<double*>(p), r, c, r);
  };
  abft::FtDgemm::Buffers buf{alloc(n + 1, n, "Ac"), alloc(n, n + 1, "Br"),
                             alloc(n + 1, n + 1, "Cf")};
  abft::FtOptions fo;
  fo.hardware_assisted = true;
  abft::FtDgemm ft(a, b, buf, fo, &rt);
  ASSERT_EQ(ft.run(be), abft::FtStatus::kOk);

  // Push the result out of the caches so the injected DRAM corruption is
  // what the next read decodes.
  void* flush = osl.malloc_plain(4 * sys.config().l2.size_bytes, "flush");
  const auto fp = *osl.virt_to_phys(flush);
  for (std::uint64_t o = 0; o < 4 * sys.config().l2.size_bytes; o += 64)
    sys.access(fp + o, memsim::AccessKind::kRead);
  osl.free_ecc(flush);
  tracer.clear();  // keep only the fault chain in the ring

  // A double-bit flip in one SECDED word: detected but uncorrectable at
  // the controller, well inside ABFT's single-element repair capability.
  const std::uint64_t phys = *osl.virt_to_phys(&buf.cf(3, 4));
  inj.inject_bit(phys, 0);
  inj.inject_bit(phys + 1, 1);
  sys.access(phys, memsim::AccessKind::kRead);  // decode -> interrupt

  const abft::FtStatus st = ft.verify_and_correct(be);
  EXPECT_NE(st, abft::FtStatus::kUncorrectable);
  EXPECT_GE(ft.stats().hw_notifications_used, 1u);
  EXPECT_GE(ft.stats().errors_corrected, 1u);

  const auto events = tracer.snapshot();
  EXPECT_TRUE(has_kind(events, EventKind::kFaultInject));
  EXPECT_TRUE(has_kind(events, EventKind::kEccUncorrectable));
  EXPECT_TRUE(has_kind(events, EventKind::kEccInterrupt));
  EXPECT_TRUE(has_kind(events, EventKind::kErrorExposed));
  EXPECT_TRUE(has_kind(events, EventKind::kErrorsDrained));
  EXPECT_TRUE(has_kind(events, EventKind::kErrorLocated));
  EXPECT_TRUE(has_kind(events, EventKind::kVerify));
  EXPECT_TRUE(has_kind(events, EventKind::kRecover));

  // Every stage of the chain names the same cache line.
  const std::uint64_t line = phys / 64;
  EXPECT_EQ(line_of_kind(events, EventKind::kFaultInject), line);
  EXPECT_EQ(line_of_kind(events, EventKind::kEccUncorrectable), line);
  EXPECT_EQ(line_of_kind(events, EventKind::kEccInterrupt), line);
  EXPECT_EQ(line_of_kind(events, EventKind::kErrorExposed), line);

  // The chain also shows up in the metrics registry.
  EXPECT_GE(reg.counter("fault.injected_flips").value(), 2u);
  EXPECT_GE(reg.counter("mc.uncorrectable").value(), 1u);
  EXPECT_GE(reg.counter("os.ecc_interrupts").value(), 1u);
  EXPECT_GE(reg.counter("os.errors_exposed").value(), 1u);
  EXPECT_GE(reg.counter("abft.errors_located").value(), 1u);

  // And the exported timeline is a valid, monotonic Chrome trace.
  const std::string json = tracer.chrome_trace_json();
  EXPECT_TRUE(json_valid(json));
  const auto ts = extract_ts(json);
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));

  tracer.enable(false);
  tracer.clear();
  reg.reset();
}

// ----------------------------------------------------- thread confinement --

// Regression for the campaign engine: default_registry() hands each thread
// its own instance, so concurrent sessions never race (or even see) each
// other's counters.
TEST(Metrics, DefaultRegistryIsPerThread) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIncrements = 10000;
  std::vector<std::thread> pool;
  std::vector<std::uint64_t> observed(kThreads, 0);
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&observed, t] {
      auto& c = default_registry().counter("test.thread_local");
      for (std::uint64_t i = 0; i < kIncrements; ++i) c.add();
      observed[static_cast<std::size_t>(t)] = c.value();
    });
  for (auto& th : pool) th.join();
  // Every thread saw exactly its own increments -- no cross-talk, no torn
  // counts -- and none of them leaked into this thread's registry.
  for (const std::uint64_t v : observed) EXPECT_EQ(v, kIncrements);
  EXPECT_EQ(default_registry().counter("test.thread_local").value(), 0u);
}

TEST(Metrics, RegistryScopeOverridesAndRestoresThreadDefault) {
  Registry& before = default_registry();
  Registry mine;
  {
    RegistryScope scope(mine);
    EXPECT_EQ(&default_registry(), &mine);
    Registry inner;
    {
      RegistryScope nested(inner);
      EXPECT_EQ(&default_registry(), &inner);
    }
    EXPECT_EQ(&default_registry(), &mine);  // LIFO restore
  }
  EXPECT_EQ(&default_registry(), &before);
}

TEST(Trace, TracerScopeOverridesAndRestoresThreadDefault) {
  Tracer& before = default_tracer();
  Tracer mine;
  {
    TracerScope scope(mine);
    EXPECT_EQ(&default_tracer(), &mine);
  }
  EXPECT_EQ(&default_tracer(), &before);
}

TEST(Trace, KindMaskDropsFilteredEventsBeforeTheRing) {
  // The campaign's latency scans mask kDemandMiss so the handful of
  // fault/recovery events can never be evicted by miss instants.
  Tracer t(4);
  t.enable();
  t.set_mask(~kind_bit(EventKind::kDemandMiss));
  for (std::uint64_t i = 0; i < 100; ++i)
    t.instant(EventKind::kDemandMiss, i, 0x40);
  t.instant(EventKind::kEccInterrupt, 200, 0x80);
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kEccInterrupt);
  EXPECT_EQ(t.dropped(), 0u);  // masked events are not "drops"
  t.set_mask(~std::uint64_t{0});
  t.instant(EventKind::kDemandMiss, 300, 0x40);
  EXPECT_EQ(t.snapshot().size(), 2u);  // unmasked records again
}

}  // namespace
}  // namespace abftecc::obs

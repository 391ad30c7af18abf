// perfbench        --workload <name> --seed <n> --seconds <s>
// perfbench_traced --workload <name> --seed <n> --seconds <s>
//                  [--trace-out <path>]
//
// The two executables are built from the same sources; the traced one
// (PERFBENCH_CAPTURE, see perfbench.hpp) records spans and reports the
// per-layer metrics. Prints a table of the workload's metrics with units
// and the output-check verdict, then, as the last line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with every metric the run measured; run.py keeps the ones BENCHMARK.json
// declares for the mode. Exit status 0 when the run completed, 2 on bad
// arguments.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/json.hpp"
#include "perfbench.hpp"

namespace {

using perfbench::Metric;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_sweep|fault_campaign|native_ftgemm --seed <n> "
               "--seconds <s> [--trace-out <path>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && args.seconds > 0;
    } else if (a == "--trace-out") {
      args.trace_path = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds) usage("--seed and --seconds are required");

  perfbench::Result (*run)(const perfbench::RunArgs&) = nullptr;
  if (args.workload == "paper_sweep") run = perfbench::run_paper_sweep;
  if (args.workload == "fault_campaign") run = perfbench::run_fault_campaign;
  if (args.workload == "native_ftgemm") run = perfbench::run_native_ftgemm;
  if (run == nullptr) usage("unknown workload");
  if (perfbench::kTraced) perfbench::enable_spans();

  perfbench::Result r = run(args);

  if (perfbench::Spans* log = perfbench::spans()) {
    r.note("obs.root_self_s", log->self_seconds(0), "s");
    r.note("obs.spans", static_cast<double>(log->size()), "count");
    if (!args.trace_path.empty() && !log->write_chrome_trace(args.trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_path.c_str());
      return 1;
    }
  }
  r.gate("peak_rss_mb", perfbench::peak_rss_mb(), "MB");

  std::printf("workload %s seed %llu trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), perfbench::kTraced ? 1 : 0);
  for (const Metric& m : r.gated)
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const Metric& m : r.info)
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  %-40s %16.6g fraction\n", "error_rate",
              r.attempted > 0 ? static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 1.0);
  for (const std::string& f : r.failures) std::printf("  FAILED %s\n", f.c_str());
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::printf("  output checks: %s (%llu attempted, %llu failed)\n",
              correct ? "pass" : "FAIL",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));

  abftecc::obs::JsonWriter w;
  w.begin_object()
      .field("correct", correct)
      .field("attempted", r.attempted)
      .field("failed", r.failed)
      .key("metrics")
      .begin_object();
  for (const auto* list : {&r.gated, &r.info})
    for (const Metric& m : *list)
      w.key(m.name)
          .begin_object()
          .field("value", m.value)
          .field("unit", std::string_view(m.unit))
          .end_object();
  w.end_object().end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

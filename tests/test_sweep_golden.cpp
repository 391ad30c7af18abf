// Exact golden values for all 24 cells of the paper sweep, and the
// parallel, front-end-replaying sweep's equality with a serial loop of live
// runs.
//
// Every kernel references only Os-registered memory (the tap enforces it),
// so simulated cycles and energies depend only on the config and the seed:
// they stay bit-identical when sizeof(memsim::Cache) changes, under ASan's
// allocator, and whatever the host heap held before the run. The table pins
// them at the perfbench paper_sweep dimensions (perfbench/workloads.cpp
// sweep_options, seed 42), so a memsim change that claims identical outputs
// has to keep them exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/sweep.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sim/platform.hpp"
#include "sim/strategy.hpp"

namespace abftecc::sim {
namespace {

struct GoldenCell {
  Kernel kernel;
  Strategy strategy;
  std::uint64_t cycles;
  std::uint64_t mem_refs;
  std::uint64_t demand_misses;
  std::uint64_t writebacks;
  double memory_pj;
  double system_pj;
};

// clang-format off
constexpr GoldenCell kGolden[] = {
    {Kernel::kDgemm, Strategy::kNoEcc, 28659130, 8629603, 52958, 27146, 0x1.dfe8c07p+32, 0x1.5442f6198p+36},
    {Kernel::kDgemm, Strategy::kWholeChipkill, 29097034, 8629603, 52958, 27146, 0x1.373f8de8p+33, 0x1.5f3661818p+36},
    {Kernel::kDgemm, Strategy::kPartialChipkillNoEcc, 28693930, 8629603, 52958, 27146, 0x1.ec8870effffffp+32, 0x1.55366d3f7ffffp+36},
    {Kernel::kDgemm, Strategy::kWholeSecded, 28659130, 8629603, 52958, 27146, 0x1.edc6a5ep+32, 0x1.5520d4708p+36},
    {Kernel::kDgemm, Strategy::kPartialSecdedNoEcc, 28659130, 8629603, 52958, 27146, 0x1.e148025p+32, 0x1.5458ea378p+36},
    {Kernel::kDgemm, Strategy::kPartialChipkillSecded, 28693930, 8629603, 52958, 27146, 0x1.f92a877ffffffp+32, 0x1.56008ea87ffffp+36},
    {Kernel::kCholesky, Strategy::kNoEcc, 22419664, 4374208, 84577, 19682, 0x1.a424d3bffffffp+32, 0x1.b890840cp+35},
    {Kernel::kCholesky, Strategy::kWholeChipkill, 23045710, 4374208, 84577, 19682, 0x1.28405ebp+33, 0x1.d3f09d678p+35},
    {Kernel::kCholesky, Strategy::kPartialChipkillNoEcc, 22419664, 4374208, 84577, 19682, 0x1.a424d3bffffffp+32, 0x1.b890840cp+35},
    {Kernel::kCholesky, Strategy::kWholeSecded, 22419664, 4374208, 84577, 19682, 0x1.b494d047fffffp+32, 0x1.ba9e839dp+35},
    {Kernel::kCholesky, Strategy::kPartialSecdedNoEcc, 22419664, 4374208, 84577, 19682, 0x1.a424d3bffffffp+32, 0x1.b890840cp+35},
    {Kernel::kCholesky, Strategy::kPartialChipkillSecded, 22419664, 4374208, 84577, 19682, 0x1.b494d047fffffp+32, 0x1.ba9e839dp+35},
    {Kernel::kCg, Strategy::kNoEcc, 17481610, 2306240, 156470, 1600, 0x1.a7462ffp+32, 0x1.363999988p+35},
    {Kernel::kCg, Strategy::kWholeChipkill, 18383950, 2306240, 156470, 1600, 0x1.54661958p+33, 0x1.5ed1b2918p+35},
    {Kernel::kCg, Strategy::kPartialChipkillNoEcc, 17489170, 2306240, 156470, 1600, 0x1.a8b1275p+32, 0x1.3678fec68p+35},
    {Kernel::kCg, Strategy::kWholeSecded, 17481610, 2306240, 156470, 1600, 0x1.c00cc26p+32, 0x1.39526be68p+35},
    {Kernel::kCg, Strategy::kPartialSecdedNoEcc, 17481610, 2306240, 156470, 1600, 0x1.a76747dp+32, 0x1.363dbc948p+35},
    {Kernel::kCg, Strategy::kPartialChipkillSecded, 17489170, 2306240, 156470, 1600, 0x1.c1592fp+32, 0x1.398dffbc8p+35},
    {Kernel::kHpl, Strategy::kNoEcc, 16620750, 3896048, 45347, 37215, 0x1.3ff5d21p+32, 0x1.6270da858p+35},
    {Kernel::kHpl, Strategy::kWholeChipkill, 17115162, 3896048, 45347, 37215, 0x1.cab7e98p+32, 0x1.7863e2967ffffp+35},
    {Kernel::kHpl, Strategy::kPartialChipkillNoEcc, 16620750, 3896048, 45347, 37215, 0x1.3ff5d21p+32, 0x1.6270da858p+35},
    {Kernel::kHpl, Strategy::kWholeSecded, 16620750, 3896048, 45347, 37215, 0x1.4d350298p+32, 0x1.6418c0968p+35},
    {Kernel::kHpl, Strategy::kPartialSecdedNoEcc, 16620750, 3896048, 45347, 37215, 0x1.3ff5d21p+32, 0x1.6270da858p+35},
    {Kernel::kHpl, Strategy::kPartialChipkillSecded, 16620750, 3896048, 45347, 37215, 0x1.4d350298p+32, 0x1.6418c0968p+35},
};
// clang-format on

PlatformOptions sweep_options() {
  PlatformOptions o;
  o.dgemm_dim = 160;
  o.cholesky_dim = 224;
  o.cg_dim = 320;
  o.cg_iterations = 8;
  o.hpl_dim = 160;
  o.hpl_processes = 4;
  o.cache_scale = 32;
  return o;
}

class SweepGolden : public ::testing::TestWithParam<GoldenCell> {};

TEST_P(SweepGolden, MatchesPinnedValuesExactly) {
  const GoldenCell& g = GetParam();
  PlatformOptions o = sweep_options();
  o.strategy = g.strategy;
  Session s = Session::Builder(o).build();
  const RunMetrics m = s.run(g.kernel);
  ASSERT_EQ(m.status, abft::FtStatus::kOk);
  EXPECT_EQ(m.sys.cpu_cycles, g.cycles);
  EXPECT_EQ(m.sys.mem_refs, g.mem_refs);
  EXPECT_EQ(m.sys.demand_misses, g.demand_misses);
  EXPECT_EQ(m.sys.writebacks, g.writebacks);
  // Exact, not EXPECT_DOUBLE_EQ: identical inputs must give identical bits.
  EXPECT_EQ(m.memory_pj(), g.memory_pj);
  EXPECT_EQ(m.system_pj(), g.system_pj);
}

std::string cell_name(const ::testing::TestParamInfo<GoldenCell>& info) {
  std::string name = std::string(kernel_name(info.param.kernel)) + "_" +
                     std::string(spec(info.param.strategy).label);
  for (char& c : name)
    if (c == '-' || c == '+') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(HeapIndependentCells, SweepGolden,
                         ::testing::ValuesIn(kGolden), cell_name);

// The parallel sweep -- one live cell per kernel recording its front end,
// five replaying it -- against a serial loop of live runs.
void expect_sweep_equals_serial_loop(PlatformOptions o) {
  o.profile = true;
  // A ring smaller than one cell's events, so the fold must reproduce the
  // serial wrap (survivors, sequence numbers, drop count) exactly.
  constexpr std::size_t kRing = 512;

  obs::Registry serial_reg;
  obs::Tracer serial_trace(kRing);
  serial_trace.enable();
  obs::PhaseProfiler serial_prof;
  std::vector<RunMetrics> serial;
  {
    const obs::RegistryScope rs(serial_reg);
    const obs::TracerScope ts(serial_trace);
    const obs::ProfilerScope ps(serial_prof);
    for (const Kernel k : bench::kSweepKernels)
      for (const Strategy st : kAllStrategies) {
        o.strategy = st;
        serial.push_back(run_kernel(k, o));
      }
  }

  obs::Registry par_reg;
  obs::Tracer par_trace(kRing);
  par_trace.enable();
  obs::PhaseProfiler par_prof;
  bench::Sweep sweep;
  {
    const obs::RegistryScope rs(par_reg);
    const obs::TracerScope ts(par_trace);
    const obs::ProfilerScope ps(par_prof);
    sweep = bench::run_sweep(o);
  }
  EXPECT_EQ(sweep.recordings, bench::kSweepKernels.size());
  EXPECT_EQ(sweep.replays,
            bench::kSweepKernels.size() * (kAllStrategies.size() - 1));

  std::size_t i = 0;
  for (const Kernel k : bench::kSweepKernels)
    for (const Strategy st : kAllStrategies) {
      EXPECT_TRUE(sweep.at(k, st) == serial[i])
          << kernel_name(k) << "/" << spec(st).label;
      ++i;
    }
  EXPECT_EQ(sweep.results.size(), serial.size());

  EXPECT_GT(serial_reg.size(), 0u);
  EXPECT_EQ(par_reg.to_json(), serial_reg.to_json());

  EXPECT_GT(serial_trace.dropped(), 0u);
  EXPECT_EQ(par_trace.recorded(), serial_trace.recorded());
  EXPECT_EQ(par_trace.dropped(), serial_trace.dropped());
  EXPECT_EQ(par_trace.chrome_trace_json(), serial_trace.chrome_trace_json());

  EXPECT_FALSE(serial_prof.nodes().empty());
  EXPECT_EQ(par_prof.to_json(), serial_prof.to_json());
}

TEST(ParallelSweep, EqualsSerialLoopWithFoldedInstruments) {
  expect_sweep_equals_serial_loop(sweep_options());
}

// Options every strategy shares but that change the front end or the
// DRAM timing: the replays must stay exact off the defaults too.
TEST(ParallelSweep, EqualsSerialLoopUnderNonDefaultOptions) {
  PlatformOptions o = sweep_options();
  o.row_policy = memsim::RowBufferPolicy::kClosedPage;
  o.hardware_assisted = true;
  o.verify_period = 2;
  expect_sweep_equals_serial_loop(o);
}

TEST(ParallelSweep, RefusesTheRecoveryLadder) {
  // Ladder runs take checkpoints outside the kernel's tap, so their front
  // end cannot be replayed; the sweep says so instead of running live.
  PlatformOptions o = sweep_options();
  o.ladder = true;
  EXPECT_THROW(bench::run_sweep(o), ContractViolation);
}

TEST(ParallelSweep, CellErrorIsRethrownOnTheCallingThread) {
  // A cell that throws on a worker thread must not terminate the process:
  // the sweep joins its workers and rethrows, as the serial loop would.
  PlatformOptions o;
  o.dgemm_dim = 32;
  o.cholesky_dim = 32;
  o.cg_dim = 32;
  o.cg_iterations = 2;
  o.hpl_dim = 32;
  o.hpl_processes = 3;  // does not divide hpl_dim: FtHpl rejects it
  EXPECT_THROW(bench::run_sweep(o), ContractViolation);
}

}  // namespace
}  // namespace abftecc::sim

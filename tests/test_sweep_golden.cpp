// Exact golden values for the heap-independent cells of the paper sweep.
//
// The simulated cycles and energies of FT-DGEMM, FT-Cholesky and FT-HPL
// depend only on the config and the seed: they stay bit-identical when
// sizeof(memsim::Cache) changes and under ASan's allocator. The table pins
// them at the perfbench paper_sweep dimensions (perfbench/workloads.cpp
// sweep_options, seed 42), so a memsim change that claims identical outputs
// has to keep them exactly. FT-CG is left out: its unregistered workspace
// pages map by host page (sim/tap.hpp), so its cycles move with heap layout.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

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
  const RunMetrics m = run_kernel(g.kernel, o);
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

}  // namespace
}  // namespace abftecc::sim

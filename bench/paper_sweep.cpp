// Figures 5, 6 and 7 from one run of the paper sweep: the six ECC
// strategies x four kernels, each figure normalized to the No_ECC run of
// its kernel.
//
// Fig. 5, memory energy split into dynamic and standby. Paper shape: whole
// chipkill is the most expensive everywhere (+68% for the memory-intensive
// FT-CG); partial chipkill recovers most of the gap (49% saving for
// FT-DGEMM, 38% for FT-CG vs W_CK); P_CK+P_SD costs only slightly more
// than P_CK+No_ECC; whole SECDED adds ~12% on average; dynamic energy is
// far more scheme-sensitive than standby.
//
// Fig. 6, system energy (memory + processor). Paper shape: processor
// energy varies with the ECC strategy (most for the memory-intensive
// FT-CG, where ECC throttles issue); partial chipkill saves up to
// 22/8/25/10% system energy for DGEMM/Cholesky/CG/HPL; partial SECDED
// saves up to 5% (FT-DGEMM).
//
// Fig. 7, performance (IPC). Paper shape: selective ECC keeps performance
// close to running without ECC (especially FT-DGEMM and FT-Cholesky); the
// performance variance across strategies is smaller than the energy
// variance because memory parallelism hides part of the ECC access
// latency.
#include "bench/sweep.hpp"

namespace {

using namespace abftecc;
using namespace abftecc::sim;

void memory_energy(bench::Report& rep, const bench::Sweep& sweep) {
  bench::header("Figure 5: memory energy by ECC strategy", "SC'13 Fig. 5");
  for (const auto kernel : bench::kSweepKernels) {
    const auto& none = sweep.at(kernel, Strategy::kNoEcc);
    const double base_mem = none.memory_pj();
    std::printf("-- %s (normalized to No_ECC) --\n",
                std::string(kernel_name(kernel)).c_str());
    bench::row({"strategy", "memory", "dynamic", "standby", "rowhit"});
    for (const auto strategy : kAllStrategies) {
      const auto& m = sweep.at(kernel, strategy);
      bench::row({std::string(spec(strategy).label),
                  bench::fmt(m.memory_pj() / base_mem),
                  bench::fmt(m.mem_dynamic_pj / base_mem),
                  bench::fmt(m.mem_standby_pj / base_mem),
                  bench::fmt(m.dram.row_hit_rate(), 2)});
    }
    const auto& wck = sweep.at(kernel, Strategy::kWholeChipkill);
    const auto& pck = sweep.at(kernel, Strategy::kPartialChipkillNoEcc);
    const auto& pckpsd = sweep.at(kernel, Strategy::kPartialChipkillSecded);
    std::printf("   partial-CK saving vs W_CK: %s (P_CK+No_ECC), %s "
                "(P_CK+P_SD)\n\n",
                bench::fmt_pct(1.0 - pck.memory_pj() / wck.memory_pj()).c_str(),
                bench::fmt_pct(1.0 - pckpsd.memory_pj() / wck.memory_pj()).c_str());
    const std::string kn(kernel_name(kernel));
    rep.scalar(kn + ".saving_pck_vs_wck",
               1.0 - pck.memory_pj() / wck.memory_pj());
    rep.scalar(kn + ".saving_pckpsd_vs_wck",
               1.0 - pckpsd.memory_pj() / wck.memory_pj());
  }
  std::printf(
      "paper anchors: FT-CG W_CK +68%% memory energy; savings 49%%/38%% "
      "(DGEMM/CG) for partial chipkill; W_SD ~ +12%% on average.\n\n");
}

void system_energy(bench::Report& rep, const bench::Sweep& sweep) {
  bench::header("Figure 6: system energy by ECC strategy", "SC'13 Fig. 6");
  for (const auto kernel : bench::kSweepKernels) {
    const auto& none = sweep.at(kernel, Strategy::kNoEcc);
    const double base_sys = none.system_pj();
    std::printf("-- %s (normalized to No_ECC) --\n",
                std::string(kernel_name(kernel)).c_str());
    bench::row({"strategy", "system", "memory", "processor"});
    for (const auto strategy : kAllStrategies) {
      const auto& m = sweep.at(kernel, strategy);
      bench::row({std::string(spec(strategy).label),
                  bench::fmt(m.system_pj() / base_sys),
                  bench::fmt(m.memory_pj() / base_sys),
                  bench::fmt(m.processor_pj / base_sys)});
    }
    const auto& wck = sweep.at(kernel, Strategy::kWholeChipkill);
    const auto& pck = sweep.at(kernel, Strategy::kPartialChipkillNoEcc);
    const auto& wsd = sweep.at(kernel, Strategy::kWholeSecded);
    const auto& psd = sweep.at(kernel, Strategy::kPartialSecdedNoEcc);
    std::printf("   system saving: partial-CK vs W_CK %s, partial-SD vs W_SD "
                "%s\n\n",
                bench::fmt_pct(1.0 - pck.system_pj() / wck.system_pj()).c_str(),
                bench::fmt_pct(1.0 - psd.system_pj() / wsd.system_pj()).c_str());
    const std::string kn(kernel_name(kernel));
    rep.scalar(kn + ".system_saving_pck_vs_wck",
               1.0 - pck.system_pj() / wck.system_pj());
    rep.scalar(kn + ".system_saving_psd_vs_wsd",
               1.0 - psd.system_pj() / wsd.system_pj());
  }
  std::printf(
      "paper anchors: partial chipkill saves up to 22/8/25/10%% "
      "(DGEMM/Cholesky/CG/HPL); partial SECDED up to 5%%.\n\n");
}

void performance(bench::Report& rep, const bench::Sweep& sweep) {
  bench::header("Figure 7: performance (IPC) by ECC strategy", "SC'13 Fig. 7");
  bench::row({"strategy", "FT-DGEMM", "FT-Cholesky", "FT-CG", "FT-HPL"});
  for (const auto strategy : kAllStrategies) {
    std::vector<std::string> cells{std::string(spec(strategy).label)};
    for (const auto kernel : bench::kSweepKernels) {
      const double base_ipc = sweep.at(kernel, Strategy::kNoEcc).ipc;
      cells.push_back(bench::fmt(sweep.at(kernel, strategy).ipc / base_ipc));
    }
    bench::row(cells);
  }
  // Variance comparison the paper calls out.
  for (const auto kernel : bench::kSweepKernels) {
    double ipc_min = 1e9, ipc_max = 0, e_min = 1e18, e_max = 0;
    for (const auto strategy : kAllStrategies) {
      const auto& m = sweep.at(kernel, strategy);
      ipc_min = std::min(ipc_min, m.ipc);
      ipc_max = std::max(ipc_max, m.ipc);
      e_min = std::min(e_min, m.memory_pj());
      e_max = std::max(e_max, m.memory_pj());
    }
    std::printf("%s: IPC spread %s vs memory-energy spread %s\n",
                std::string(kernel_name(kernel)).c_str(),
                bench::fmt_pct(ipc_max / ipc_min - 1.0).c_str(),
                bench::fmt_pct(e_max / e_min - 1.0).c_str());
    const std::string kn(kernel_name(kernel));
    rep.scalar(kn + ".ipc_spread", ipc_max / ipc_min - 1.0);
    rep.scalar(kn + ".memory_energy_spread", e_max / e_min - 1.0);
  }
  std::printf(
      "\npaper shape: partial-ECC IPC ~= No_ECC IPC; performance spread < "
      "energy spread.\n");
}

}  // namespace

int main(int argc, char** argv) {
  PlatformOptions base;
  bench::Report rep(argc, argv,
                    "Figures 5-7: energy and performance by ECC strategy",
                    "SC'13 Figs. 5-7", base);

  const bench::Sweep sweep = bench::run_sweep(base);
  bench::add_sweep(rep, sweep);
  memory_energy(rep, sweep);
  system_energy(rep, sweep);
  performance(rep, sweep);
  return 0;
}

// Figure 10: comparison with the state-of-the-art flexible ECC (DGMS).
//
// DGMS picks ECC granularity from spatial-pattern prediction and is blind
// to ABFT. Paper shape: for the high-locality FT-DGEMM, DGMS converges to
// whole-chipkill behaviour, so the ABFT-directed scheme wins ~18%
// performance and ~49% memory energy; for FT-Pred-CG, performance is close
// but DGMS still spends ~24% more memory energy because it assigns chipkill
// to accesses that ABFT already covers.
#include "bench/report.hpp"
#include "bench/sweep.hpp"
#include "sim/platform.hpp"

int main(int argc, char** argv) {
  using namespace abftecc;
  using namespace abftecc::sim;
  PlatformOptions base;
  bench::Report rep(argc, argv, "Figure 10: DGMS vs ABFT-directed ECC",
                    "SC'13 Fig. 10", base);

  // DGMS and the strategies act below the caches: one live run per kernel,
  // the other two replay its front end.
  bench::FrontEnds front_ends;
  for (const auto kernel : {Kernel::kDgemm, Kernel::kCg}) {
    PlatformOptions none = base;
    none.strategy = Strategy::kNoEcc;
    const RunMetrics m_none = front_ends.run(kernel, none);

    PlatformOptions dgms = base;
    dgms.strategy = Strategy::kWholeChipkill;  // DGMS decides per access
    dgms.use_dgms = true;
    const RunMetrics m_dgms = front_ends.run(kernel, dgms);

    PlatformOptions ours = base;
    ours.strategy = Strategy::kPartialChipkillSecded;  // same CK + SD pair
    const RunMetrics m_ours = front_ends.run(kernel, ours);

    std::printf("-- %s (normalized to No_ECC) --\n",
                std::string(kernel_name(kernel)).c_str());
    bench::row({"scheme", "time", "memory-E", "system-E"});
    const auto print = [&](const char* name, const RunMetrics& m) {
      bench::row({name, bench::fmt(m.seconds / m_none.seconds),
                  bench::fmt(m.memory_pj() / m_none.memory_pj()),
                  bench::fmt(m.system_pj() / m_none.system_pj())});
    };
    print("DGMS", m_dgms);
    print("ours(P_CK+P_SD)", m_ours);
    std::printf("   ours vs DGMS: time %s, memory energy %s\n\n",
                bench::fmt_pct(1.0 - m_ours.seconds / m_dgms.seconds).c_str(),
                bench::fmt_pct(1.0 - m_ours.memory_pj() / m_dgms.memory_pj())
                    .c_str());
    const std::string kn(kernel_name(kernel));
    rep.add_run(kn + "/No_ECC", m_none);
    rep.add_run(kn + "/DGMS", m_dgms);
    rep.add_run(kn + "/ours", m_ours);
    rep.scalar(kn + ".time_saving_vs_dgms",
               1.0 - m_ours.seconds / m_dgms.seconds);
    rep.scalar(kn + ".memory_energy_saving_vs_dgms",
               1.0 - m_ours.memory_pj() / m_dgms.memory_pj());
  }
  std::printf(
      "paper anchors: DGEMM ours beats DGMS by ~18%% time / ~49%% memory "
      "energy; CG time ~equal, ~24%% less memory energy.\n");
  return 0;
}

// Ablation (Section 5.1's row-buffer observation): how the row-buffer
// policy changes what partial ECC can save.
//
// The paper attributes the gap between the reference-ratio-predicted
// saving and the measured dynamic saving to row-buffer hits ("if access
// locality is good ... the dynamic energy saving is limited"). Closed-page
// mode removes those hits: every access pays an activation, so the dynamic
// energy spread across strategies widens.
#include "bench/report.hpp"
#include "bench/sweep.hpp"
#include "sim/platform.hpp"

int main(int argc, char** argv) {
  using namespace abftecc;
  using namespace abftecc::sim;
  PlatformOptions base;
  bench::Report rep(argc, argv,
                    "Ablation: row-buffer policy vs partial-ECC savings",
                    "SC'13 Sec. 5.1 row-buffer discussion", base);
  // The row-buffer policy and the strategy act below the caches: each
  // kernel's front end runs live once and is replayed for the other cells.
  bench::FrontEnds front_ends;
  for (const auto policy : {memsim::RowBufferPolicy::kOpenPage,
                            memsim::RowBufferPolicy::kClosedPage}) {
    const char* pname =
        policy == memsim::RowBufferPolicy::kOpenPage ? "open" : "closed";
    std::printf("-- %s page --\n", pname);
    bench::row({"kernel", "rowhit", "W_CK dyn", "P_CK dyn", "dyn saving"});
    for (const auto kernel : {Kernel::kDgemm, Kernel::kCg}) {
      PlatformOptions whole = base;
      whole.row_policy = policy;
      whole.strategy = Strategy::kWholeChipkill;
      const RunMetrics w = front_ends.run(kernel, whole);
      PlatformOptions part = whole;
      part.strategy = Strategy::kPartialChipkillNoEcc;
      const RunMetrics p = front_ends.run(kernel, part);
      bench::row({std::string(kernel_name(kernel)),
                  bench::fmt(w.dram.row_hit_rate(), 2),
                  bench::fmt_sci(joules(w.mem_dynamic_pj)) + "J",
                  bench::fmt_sci(joules(p.mem_dynamic_pj)) + "J",
                  bench::fmt_pct(1.0 - p.mem_dynamic_pj / w.mem_dynamic_pj)});
      const std::string kn =
          std::string(pname) + "/" + std::string(kernel_name(kernel));
      rep.add_run(kn + "/W_CK", w);
      rep.add_run(kn + "/P_CK", p);
      rep.scalar(kn + ".dynamic_saving",
                 1.0 - p.mem_dynamic_pj / w.mem_dynamic_pj);
    }
    std::printf("\n");
  }
  std::printf("expected: closed-page kills row hits, raising absolute "
              "dynamic energy for every strategy.\n");
  return 0;
}

// Solving linear systems fault-tolerantly with the two solver kernels:
//
//   * FT-CG: an SPD system survives a corrupted residual vector mid-solve
//     (fail-continue soft error) via the invariant check r = b - A x.
//   * FT-HPL: a dense LU solve survives losing an entire "process" --
//     a quarter of the matrix rows -- mid-factorization (fail-stop),
//     rebuilt from the checksum rows carried through the elimination.
//
//   build/examples/ft_solver
#include <cstdio>
#include <vector>

#include "abft/ft_cg.hpp"
#include "abft/ft_hpl.hpp"
#include "linalg/generate.hpp"

namespace {

bool demo_ft_cg() {
  using namespace abftecc;
  std::printf("--- FT-CG: soft error in the residual vector ---\n");
  const std::size_t n = 256;
  Rng rng(5);
  linalg::LinearSystem sys = linalg::make_spd_system(n, rng);

  std::vector<double> b = sys.b, x(n, 0.0), r(n), z(n), p(n), q(n), w(4 * n);
  linalg::CgOptions copt;
  copt.max_iterations = 4 * n;
  copt.tolerance = 1e-11;

  // A tap that corrupts r[100] after 1M memory references (mid-solve).
  // Taps are passed by value through the kernels, so the state lives
  // behind pointers.
  struct CorruptOnce {
    double* target;
    std::uint64_t* count;
    void read(const void*, std::size_t = 8) { tick(); }
    void write(const void*, std::size_t = 8) { tick(); }
    void update(const void*, std::size_t = 8) { tick(); }
    void tick() {
      if (++*count == 1'000'000) {
        *target += 1e8;
        std::printf("  [fault] r[100] += 1e8 at reference #%llu\n",
                    static_cast<unsigned long long>(*count));
      }
    }
  };
  abft::FtCg ft(sys.a.view(), b, {x, r, z, p, q, w}, copt);
  std::uint64_t refs = 0;
  TapBackend be(CorruptOnce{&r[100], &refs});
  const abft::FtCgResult res = ft.run(be);

  double err = 0;
  for (std::size_t i = 0; i < n; ++i)
    err = std::max(err, std::abs(x[i] - sys.x_true[i]));
  std::printf("  converged=%d in %llu iterations, %llu error(s) corrected, "
              "max |x - x_true| = %.3g\n",
              res.cg.converged,
              static_cast<unsigned long long>(res.cg.iterations),
              static_cast<unsigned long long>(ft.stats().errors_corrected),
              err);
  return res.cg.converged && err < 1e-6;
}

bool demo_ft_hpl() {
  using namespace abftecc;
  std::printf("--- FT-HPL: fail-stop loss of one process ---\n");
  const std::size_t n = 256, procs = 4;
  Rng rng(6);
  linalg::LinearSystem sys = linalg::make_general_system(n, rng);

  const std::size_t h = n / procs;
  Matrix ae(n + h, n + 1), uc(h, n + 1);
  NativeBackend be;
  abft::FtHpl ft(be, sys.a.view(), sys.b, procs, {ae.view(), uc.view()});

  // Factor half-way, then "process 2 dies" taking its rows with it.
  ft.factor_steps(n / 2, be);
  std::printf("  factored %zu of %zu columns; killing process 2 (%zu rows)\n",
              ft.next_block(), n, h);
  ft.simulate_failstop(2);
  if (ft.recover_process(2, be) != abft::FtStatus::kCorrectedErrors) {
    std::printf("  recovery failed\n");
    return false;
  }
  std::printf("  recovered all %zu rows from the checksum relationships\n", h);
  if (ft.factor_steps(n, be) != abft::FtStatus::kOk) return false;

  std::vector<double> x(n);
  ft.solve(x);
  double err = 0;
  for (std::size_t i = 0; i < n; ++i)
    err = std::max(err, std::abs(x[i] - sys.x_true[i]));
  std::printf("  solve finished: max |x - x_true| = %.3g\n", err);
  return err < 1e-6;
}

}  // namespace

int main() {
  const bool cg_ok = demo_ft_cg();
  const bool hpl_ok = demo_ft_hpl();
  std::printf("%s\n", cg_ok && hpl_ok ? "both solves survived their faults"
                                      : "FAILURE");
  return cg_ok && hpl_ok ? 0 : 1;
}

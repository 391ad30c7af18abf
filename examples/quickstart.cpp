// Quickstart: fault-tolerant matrix multiply in a dozen lines.
//
// Multiplies two matrices with FT-DGEMM, flips a bit in the running result
// mid-way through (as a memory error would), and shows ABFT detecting,
// locating and repairing it -- no simulator required: the kernels are
// plain C++ you can call from any application.
//
//   build/examples/quickstart
#include <cstdio>

#include "abft/ft_dgemm.hpp"
#include "common/rng.hpp"
#include "linalg/blas.hpp"

int main() {
  using namespace abftecc;
  constexpr std::size_t n = 128;

  // 1. Some input data.
  Rng rng(2024);
  Matrix a = Matrix::random(n, n, rng);
  Matrix b = Matrix::random(n, n, rng);

  // 2. Buffers for the encoded operands: A gets a checksum row, B a
  //    checksum column, and the product carries both.
  Matrix ac(n + 1, n), br(n, n + 1), cf(n + 1, n + 1);
  abft::FtDgemm ft(a.view(), b.view(), {ac.view(), br.view(), cf.view()});

  // 3. Multiply on the host. (Verification runs periodically inside.)
  NativeBackend host;
  if (ft.run(host) != abft::FtStatus::kOk) {
    std::printf("unexpected ABFT status\n");
    return 1;
  }
  std::printf("clean multiply done: %llu verifications, 0 errors\n",
              static_cast<unsigned long long>(ft.stats().verifications));

  // 4. Simulate a memory error striking the result...
  cf(37, 91) += 1e6;
  std::printf("injected: C(37,91) += 1e6\n");

  // 5. ...and let ABFT repair it from the checksum relationship.
  const abft::FtStatus st = ft.verify_and_correct(host);
  std::printf("verification: %s, %llu error(s) corrected\n",
              st == abft::FtStatus::kCorrectedErrors ? "corrected" : "clean",
              static_cast<unsigned long long>(ft.stats().errors_corrected));

  // 6. Check against a plain multiply.
  Matrix ref(n, n);
  linalg::gemm(1.0, a.view(), b.view(), 0.0, ref.view());
  const double err = max_abs_diff(ft.result(), ref.view());
  std::printf("max |FT-DGEMM - plain gemm| = %.3g  ->  %s\n", err,
              err < 1e-8 ? "OK" : "MISMATCH");
  return err < 1e-8 ? 0 : 1;
}

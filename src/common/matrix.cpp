#include "common/matrix.hpp"

#include <cmath>

namespace abftecc {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::random(std::size_t rows, std::size_t cols, Rng& rng, double lo,
                      double hi) {
  Matrix m(rows, cols);
  for (std::size_t j = 0; j < cols; ++j)
    for (std::size_t i = 0; i < rows; ++i) m(i, j) = rng.uniform(lo, hi);
  return m;
}

Matrix Matrix::random_spd(std::size_t n, Rng& rng) {
  // A = R R^T + n I ensures eigenvalues >= n - ||R R^T|| margin; diagonal
  // dominance keeps Cholesky well-conditioned for any seed.
  //
  // R is drawn column by column, in random()'s order, and summed in as
  // rank-1 updates, so only one column of R is ever held and the update
  // runs at unit stride. Each a(i, j) still adds its terms in k order, so
  // the result is the same bits as the dot-product form.
  Matrix a(n, n);
  std::vector<double> r(n);
  for (std::size_t k = 0; k < n; ++k) {
    for (double& v : r) v = rng.uniform(-1.0, 1.0);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i <= j; ++i) a(i, j) += r[i] * r[j];
  }
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < j; ++i) a(j, i) = a(i, j);
    a(j, j) += static_cast<double>(n);
  }
  return a;
}

double max_abs_diff(ConstMatrixView a, ConstMatrixView b) {
  ABFTECC_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols());
  double m = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i)
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
  return m;
}

double frobenius_norm(ConstMatrixView a) {
  double s = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) s += a(i, j) * a(i, j);
  return std::sqrt(s);
}

}  // namespace abftecc

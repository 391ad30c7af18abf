// Checksum primitives for the checksum-based ABFT kernels.
//
// Two checksum vectors are used throughout: the all-ones vector e (sum
// checksum, detects an error and gives its magnitude) and the weight vector
// w with w_i = i+1 (weighted checksum, locates the row). Together they
// detect and correct one error per column per verification, across any
// number of columns simultaneously -- the "sophisticated checksum vectors"
// capability of Section 2.1.
#pragma once

#include <cmath>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/tap.hpp"

namespace abftecc::abft {

/// Residual classification for one column (or row) checksum test.
struct ColumnError {
  std::size_t column = 0;
  std::size_t row = 0;       ///< located via the weighted checksum
  double magnitude = 0.0;    ///< value to subtract from the element
  bool locatable = false;    ///< weighted/sum ratio resolved to a valid row
};

/// Compute sum and weighted checksums of each column of `a` into `sum` and
/// `weighted` (both length a.cols()). Weights are w_i = i + 1 + row_offset.
template <MemTap Tap>
void column_checksums(ConstMatrixView a, std::span<double> sum,
                      std::span<double> weighted, std::size_t row_offset,
                      Tap tap) {
  ABFTECC_REQUIRE(sum.size() == a.cols() && weighted.size() == a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    double s = 0.0, w = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) {
      tap.read(&a(i, j));
      s += a(i, j);
      w += static_cast<double>(i + 1 + row_offset) * a(i, j);
    }
    tap.write(&sum[j]);
    tap.write(&weighted[j]);
    sum[j] = s;
    weighted[j] = w;
  }
}

/// Compare freshly computed column checksums against maintained ones and
/// locate single-per-column errors. `scale` is a magnitude reference for
/// the relative tolerance (e.g. a norm of the matrix).
template <MemTap Tap>
std::vector<ColumnError> verify_columns(ConstMatrixView a,
                                        std::span<const double> sum,
                                        std::span<const double> weighted,
                                        double tolerance, double scale,
                                        std::size_t row_offset, Tap tap) {
  ABFTECC_REQUIRE(sum.size() == a.cols() && weighted.size() == a.cols());
  std::vector<ColumnError> errors;
  const double threshold =
      tolerance * (scale > 0.0 ? scale : 1.0) *
      static_cast<double>(a.rows());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    double s = 0.0, w = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) {
      tap.read(&a(i, j));
      s += a(i, j);
      w += static_cast<double>(i + 1 + row_offset) * a(i, j);
    }
    tap.read(&sum[j]);
    tap.read(&weighted[j]);
    const double ds = s - sum[j];
    const double dw = w - weighted[j];
    if (std::abs(ds) <= threshold) continue;
    ColumnError e;
    e.column = j;
    e.magnitude = ds;
    // Row location: dw/ds = i + 1 + row_offset for a single error in row i.
    // A genuine single error also satisfies dw == ds * (i+1+offset) up to
    // rounding; multi-error coincidences fail that consistency test.
    const double row_f = dw / ds - 1.0 - static_cast<double>(row_offset);
    const auto row = static_cast<long long>(std::llround(row_f));
    if (row >= 0 && row < static_cast<long long>(a.rows()) &&
        std::abs(dw - ds * (static_cast<double>(row) + 1.0 +
                            static_cast<double>(row_offset))) <=
            threshold * static_cast<double>(a.rows())) {
      e.row = static_cast<std::size_t>(row);
      e.locatable = true;
    }
    errors.push_back(e);
  }
  return errors;
}

/// Norm-like scale of a view: mean absolute value (cheap, robust reference
/// for relative thresholds).
double mean_abs(ConstMatrixView a);

}  // namespace abftecc::abft

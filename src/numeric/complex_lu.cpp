#include "numeric/complex_lu.hpp"

#include <cmath>

#include "numeric/linear_error.hpp"
#include "util/error.hpp"

namespace oxmlc::num {

void ComplexLu::factorize(const ComplexDenseMatrix& a) {
  OXMLC_CHECK(a.rows() == a.cols(), "ComplexLu: matrix must be square");
  n_ = a.rows();
  lu_ = a;
  perm_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n_; ++k) {
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(lu_.at(k, k));
    for (std::size_t r = k + 1; r < n_; ++r) {
      const double mag = std::abs(lu_.at(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag < kPivotTolerance) {
      throw SingularMatrixError(
          "ComplexLu: numerically singular matrix at column " + std::to_string(k), k);
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n_; ++c) std::swap(lu_.at(k, c), lu_.at(pivot_row, c));
      std::swap(perm_[k], perm_[pivot_row]);
    }
    const Complex inv_pivot = 1.0 / lu_.at(k, k);
    for (std::size_t r = k + 1; r < n_; ++r) {
      const Complex factor = lu_.at(r, k) * inv_pivot;
      if (factor == Complex{}) continue;
      lu_.at(r, k) = factor;
      for (std::size_t c = k + 1; c < n_; ++c) {
        lu_.at(r, c) -= factor * lu_.at(k, c);
      }
    }
  }
}

void ComplexLu::solve(std::span<const Complex> b, std::span<Complex> x) const {
  OXMLC_CHECK(factorized(), "ComplexLu::solve before factorize");
  OXMLC_CHECK(b.size() == n_ && x.size() == n_, "ComplexLu::solve size mismatch");
  for (std::size_t r = 0; r < n_; ++r) {
    Complex s = b[perm_[r]];
    for (std::size_t c = 0; c < r; ++c) s -= lu_.at(r, c) * x[c];
    x[r] = s;
  }
  for (std::size_t ri = n_; ri-- > 0;) {
    Complex s = x[ri];
    for (std::size_t c = ri + 1; c < n_; ++c) s -= lu_.at(ri, c) * x[c];
    x[ri] = s / lu_.at(ri, ri);
  }
}

}  // namespace oxmlc::num

#include "numeric/dense_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "numeric/linear_error.hpp"
#include "util/error.hpp"

namespace oxmlc::num {

template <typename T>
BasicDenseMatrix<T>::BasicDenseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, T{}) {}

template <typename T>
void BasicDenseMatrix<T>::set_zero() {
  std::fill(data_.begin(), data_.end(), T{});
}

template <typename T>
void BasicDenseMatrix<T>::multiply(std::span<const T> x, std::span<T> y) const {
  OXMLC_CHECK(x.size() == cols_ && y.size() == rows_, "DenseMatrix::multiply size mismatch");
  for (std::size_t r = 0; r < rows_; ++r) {
    T s{};
    const T* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) s += row[c] * x[c];
    y[r] = s;
  }
}

template <typename T>
void BasicDenseLu<T>::factorize(const BasicDenseMatrix<T>& a) {
  OXMLC_CHECK(a.rows() == a.cols(), "DenseLu: matrix must be square");
  n_ = a.rows();
  lu_ = a;
  perm_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n_; ++k) {
    // Partial pivoting: pick the largest magnitude in column k at/below row k.
    // On a double, std::abs is fabs.
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
          "DenseLu: numerically singular matrix (pivot " + std::to_string(pivot_mag) +
              " at column " + std::to_string(k) + ")",
          k);
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n_; ++c) std::swap(lu_.at(k, c), lu_.at(pivot_row, c));
      std::swap(perm_[k], perm_[pivot_row]);
    }

    const T inv_pivot = 1.0 / lu_.at(k, k);
    for (std::size_t r = k + 1; r < n_; ++r) {
      const T factor = lu_.at(r, k) * inv_pivot;
      if (factor == T{}) continue;
      lu_.at(r, k) = factor;
      for (std::size_t c = k + 1; c < n_; ++c) {
        lu_.at(r, c) -= factor * lu_.at(k, c);
      }
    }
  }
}

template <typename T>
void BasicDenseLu<T>::solve(std::span<const T> b, std::span<T> x) const {
  OXMLC_CHECK(factorized(), "DenseLu::solve before factorize");
  OXMLC_CHECK(b.size() == n_ && x.size() == n_, "DenseLu::solve size mismatch");
  // Forward substitution with permutation: L y = P b.
  for (std::size_t r = 0; r < n_; ++r) {
    T s = b[perm_[r]];
    for (std::size_t c = 0; c < r; ++c) s -= lu_.at(r, c) * x[c];
    x[r] = s;
  }
  // Back substitution: U x = y.
  for (std::size_t ri = n_; ri-- > 0;) {
    T s = x[ri];
    for (std::size_t c = ri + 1; c < n_; ++c) s -= lu_.at(ri, c) * x[c];
    x[ri] = s / lu_.at(ri, ri);
  }
}

template class BasicDenseMatrix<double>;
template class BasicDenseMatrix<Complex>;
template class BasicDenseLu<double>;
template class BasicDenseLu<Complex>;

}  // namespace oxmlc::num

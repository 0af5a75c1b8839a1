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

namespace {

// Forward and back substitution of W right-hand sides at once, column j at
// b + j * n and x + j * n. Each column takes one-column substitution's
// operations in its order; holding the W columns' running sums side by side
// lets their dependent chains of subtractions overlap.
template <typename T, std::size_t W>
void substitute(const BasicDenseMatrix<T>& lu, const std::vector<std::size_t>& perm,
                const T* b, T* x) {
  const std::size_t n = perm.size();
  // Forward substitution with permutation: L y = P b.
  for (std::size_t r = 0; r < n; ++r) {
    T s[W];
    for (std::size_t j = 0; j < W; ++j) s[j] = b[j * n + perm[r]];
    for (std::size_t c = 0; c < r; ++c) {
      const T l = lu.at(r, c);
      for (std::size_t j = 0; j < W; ++j) s[j] -= l * x[j * n + c];
    }
    for (std::size_t j = 0; j < W; ++j) x[j * n + r] = s[j];
  }
  // Back substitution: U x = y.
  for (std::size_t ri = n; ri-- > 0;) {
    T s[W];
    for (std::size_t j = 0; j < W; ++j) s[j] = x[j * n + ri];
    for (std::size_t c = ri + 1; c < n; ++c) {
      const T u = lu.at(ri, c);
      for (std::size_t j = 0; j < W; ++j) s[j] -= u * x[j * n + c];
    }
    const T d = lu.at(ri, ri);
    for (std::size_t j = 0; j < W; ++j) x[j * n + ri] = s[j] / d;
  }
}

}  // namespace

template <typename T>
void BasicDenseLu<T>::solve(std::span<const T> b, std::span<T> x) const {
  solve_columns(b, x, 1);
}

template <typename T>
void BasicDenseLu<T>::solve_columns(std::span<const T> b, std::span<T> x,
                                    std::size_t m) const {
  OXMLC_CHECK(factorized(), "DenseLu::solve before factorize");
  OXMLC_CHECK(b.size() == n_ * m && x.size() == n_ * m, "DenseLu::solve size mismatch");
  // Four columns per pass, then the rest in one narrower pass.
  const T* bj = b.data();
  T* xj = x.data();
  std::size_t left = m;
  for (; left >= 4; left -= 4, bj += 4 * n_, xj += 4 * n_) {
    substitute<T, 4>(lu_, perm_, bj, xj);
  }
  switch (left) {
    case 3: substitute<T, 3>(lu_, perm_, bj, xj); break;
    case 2: substitute<T, 2>(lu_, perm_, bj, xj); break;
    case 1: substitute<T, 1>(lu_, perm_, bj, xj); break;
    default: break;
  }
}

template class BasicDenseMatrix<double>;
template class BasicDenseMatrix<Complex>;
template class BasicDenseLu<double>;
template class BasicDenseLu<Complex>;

}  // namespace oxmlc::num

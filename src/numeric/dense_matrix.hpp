// Dense row-major matrix with LU factorization (partial pivoting), real and
// complex.
//
// MNA systems for the circuits in this project are small (tens of nodes), so a
// dense factorization is both the fastest and the most robust choice below the
// sparse cutoff; the sparse path (sparse_lu.hpp) covers large parasitic-ladder
// arrays. AC (small-signal) testbenches linearize around an operating point,
// so their complex matrices are the size of the DC system: dense again. One
// template serves both scalars; dense_matrix.cpp instantiates it for double
// and std::complex<double>.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace oxmlc::num {

using Complex = std::complex<double>;

template <typename T>
class BasicDenseMatrix {
 public:
  BasicDenseMatrix() = default;
  BasicDenseMatrix(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  T& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  T at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  void set_zero();
  void add(std::size_t r, std::size_t c, T v) { at(r, c) += v; }

  // y = A x
  void multiply(std::span<const T> x, std::span<T> y) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

// In-place LU with partial pivoting. Throws SingularMatrixError if the matrix
// is numerically singular (pivot magnitude below kPivotTolerance,
// linear_error.hpp).
template <typename T>
class BasicDenseLu {
 public:
  // Factorizes a copy of `a` (must be square).
  void factorize(const BasicDenseMatrix<T>& a);

  // Solves A x = b using the stored factors. b.size() == n.
  void solve(std::span<const T> b, std::span<T> x) const;

  // Solves A X = B for m right-hand sides stored column-major (column j at
  // j * n); b.size() == x.size() == n * m. Every column gets exactly solve()'s
  // operations in solve()'s order, so it is bit-identical to solve() on that
  // column, while the columns' substitution chains interleave. solve() is the
  // one-column case.
  void solve_columns(std::span<const T> b, std::span<T> x, std::size_t m) const;

  bool factorized() const { return n_ > 0; }

 private:
  std::size_t n_ = 0;
  BasicDenseMatrix<T> lu_;
  std::vector<std::size_t> perm_;
};

extern template class BasicDenseMatrix<double>;
extern template class BasicDenseMatrix<Complex>;
extern template class BasicDenseLu<double>;
extern template class BasicDenseLu<Complex>;

using DenseMatrix = BasicDenseMatrix<double>;
using DenseLu = BasicDenseLu<double>;
using ComplexDenseMatrix = BasicDenseMatrix<Complex>;
using ComplexLu = BasicDenseLu<Complex>;

}  // namespace oxmlc::num

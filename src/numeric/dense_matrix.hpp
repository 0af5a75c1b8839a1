// Dense row-major matrix with LU factorization (partial pivoting).
//
// MNA systems for the circuits in this project are small (tens of nodes), so a
// dense factorization is both the fastest and the most robust choice below the
// sparse cutoff; the sparse path (sparse_lu.hpp) covers large parasitic-ladder
// arrays.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace oxmlc::num {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  void set_zero();
  void add(std::size_t r, std::size_t c, double v) { at(r, c) += v; }

  // y = A x
  void multiply(std::span<const double> x, std::span<double> y) const;

  std::span<double> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const double> row(std::size_t r) const { return {data_.data() + r * cols_, cols_}; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// In-place LU with partial pivoting. Throws SingularMatrixError if the matrix
// is numerically singular (pivot below kPivotTolerance, linear_error.hpp).
class DenseLu {
 public:
  // Factorizes a copy of `a` (must be square).
  void factorize(const DenseMatrix& a);

  // Solves A x = b using the stored factors. b.size() == n.
  void solve(std::span<const double> b, std::span<double> x) const;

  bool factorized() const { return n_ > 0; }
  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;
};

}  // namespace oxmlc::num

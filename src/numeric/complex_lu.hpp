// Dense complex LU with partial pivoting, for AC (small-signal) analysis.
// AC testbenches linearize around an operating point, so their matrices are
// the size of the DC system — dense is the right tool.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace oxmlc::num {

using Complex = std::complex<double>;

class ComplexDenseMatrix {
 public:
  ComplexDenseMatrix() = default;
  ComplexDenseMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  Complex& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  Complex at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  void add(std::size_t r, std::size_t c, Complex v) { at(r, c) += v; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Complex> data_;
};

class ComplexLu {
 public:
  // Factorizes a copy of `a`; throws SingularMatrixError when a pivot falls
  // below kPivotTolerance (linear_error.hpp).
  void factorize(const ComplexDenseMatrix& a);
  void solve(std::span<const Complex> b, std::span<Complex> x) const;

  bool factorized() const { return n_ > 0; }

 private:
  std::size_t n_ = 0;
  ComplexDenseMatrix lu_;
  std::vector<std::size_t> perm_;
};

}  // namespace oxmlc::num

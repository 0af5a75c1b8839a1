// Typed failure for LU factorizations.
//
// All three factorizations (DenseLu, SparseLu, ComplexLu) report a numerically
// singular matrix — a best pivot below kPivotTolerance in magnitude — through
// this exception instead of a bare ConvergenceError, carrying the zero-pivot
// column index. Higher layers that know what the unknowns *mean* (the MNA
// assembler knows column k is node "bl" or the branch current of "VSL") catch
// it and re-throw with circuit-level context.
#pragma once

#include <cstddef>
#include <string>

#include "util/error.hpp"

namespace oxmlc::num {

// Pivot magnitude below which every LU treats a column as singular.
inline constexpr double kPivotTolerance = 1e-14;

class SingularMatrixError : public ConvergenceError {
 public:
  SingularMatrixError(const std::string& what, std::size_t column)
      : ConvergenceError(what), column_(column) {}

  // Unknown-vector index of the zero pivot (post-permutation elimination
  // column, which equals the unknown index for the column ordering used here).
  std::size_t column() const { return column_; }

 private:
  std::size_t column_;
};

}  // namespace oxmlc::num

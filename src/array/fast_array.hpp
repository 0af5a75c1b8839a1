// A memory array of fast-path 1T-1R cells with per-device (D2D) sampled
// parameters and per-cell C2C random streams. This is the array-scale
// substrate used by the Fig. 3 variability study, the QLC storage examples,
// and the word-level programming flows — the paper's 8x8 test array and its
// 1 Kbyte simulation target both instantiate as configurations of this class.
#pragma once

#include <cstddef>
#include <vector>

#include "oxram/fast_cell.hpp"
#include "util/rng.hpp"

namespace oxmlc::array {

class FastArray {
 public:
  FastArray(std::size_t rows, std::size_t cols, const oxram::OxramParams& nominal,
            const oxram::OxramVariability& variability, const oxram::StackConfig& stack,
            std::uint64_t seed);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return rows_ * cols_; }

  oxram::FastCell& at(std::size_t row, std::size_t col);
  const oxram::FastCell& at(std::size_t row, std::size_t col) const;

  // Row-major position of a cell; throws InvalidArgumentError naming the
  // cell and the dimensions when it is out of range (as at() does).
  std::size_t index(std::size_t row, std::size_t col) const;

  // Per-cell random stream (deterministic: derived from the array seed and
  // the cell position, independent of access order).
  Rng& rng_at(std::size_t row, std::size_t col);

  // FORMING for every cell (one-time, oxram::kForming), as one
  // oxram::CellBatch over the whole array.
  void form_all();

  // Resamples the per-operation C2C rate factor of a cell and returns it;
  // callers invoke this before each programming pulse.
  double refresh_cycle_rate(std::size_t row, std::size_t col);

 private:
  std::size_t rows_;
  std::size_t cols_;
  oxram::OxramVariability variability_;
  std::vector<oxram::FastCell> cells_;
  std::vector<Rng> rngs_;
};

}  // namespace oxmlc::array

#include "array/fast_array.hpp"

#include <string>

#include "oxram/batch_kernel.hpp"
#include "util/error.hpp"

namespace oxmlc::array {

FastArray::FastArray(std::size_t rows, std::size_t cols, const oxram::OxramParams& nominal,
                     const oxram::OxramVariability& variability,
                     const oxram::StackConfig& stack, std::uint64_t seed)
    : rows_(rows), cols_(cols), variability_(variability) {
  OXMLC_CHECK(rows > 0 && cols > 0, "FastArray: dimensions must be positive");
  cells_.reserve(rows * cols);
  rngs_.reserve(rows * cols);
  Rng seeder(seed);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    Rng cell_rng = seeder.split();
    const oxram::OxramParams device = sample_device(nominal, variability, cell_rng);
    cells_.emplace_back(device, stack, device.g_virgin, /*virgin=*/true);
    rngs_.push_back(cell_rng);
  }
}

std::size_t FastArray::index(std::size_t row, std::size_t col) const {
  OXMLC_CHECK(row < rows_ && col < cols_,
              "FastArray: cell index (" + std::to_string(row) + ", " +
                  std::to_string(col) + ") out of range for " + std::to_string(rows_) +
                  "x" + std::to_string(cols_) + " array");
  return row * cols_ + col;
}

oxram::FastCell& FastArray::at(std::size_t row, std::size_t col) {
  return cells_[index(row, col)];
}

const oxram::FastCell& FastArray::at(std::size_t row, std::size_t col) const {
  return cells_[index(row, col)];
}

Rng& FastArray::rng_at(std::size_t row, std::size_t col) { return rngs_[index(row, col)]; }

void FastArray::form_all() {
  oxram::CellBatch batch;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      refresh_cycle_rate(r, c);
      batch.add_set(at(r, c), oxram::kForming);
    }
  }
  batch.run();
}

double FastArray::refresh_cycle_rate(std::size_t row, std::size_t col) {
  const double factor = sample_cycle_rate_factor(variability_, rng_at(row, col));
  at(row, col).set_rate_factor(factor);
  return factor;
}

}  // namespace oxmlc::array

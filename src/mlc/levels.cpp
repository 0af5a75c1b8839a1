#include "mlc/levels.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace oxmlc::mlc {

CalibrationCurve::CalibrationCurve(std::vector<double> iref, std::vector<double> resistance)
    : iref_(std::move(iref)), resistance_(std::move(resistance)) {
  OXMLC_CHECK(iref_.size() == resistance_.size(), "calibration curve: size mismatch");
  OXMLC_CHECK(iref_.size() >= 2, "calibration curve: need at least two points");
  OXMLC_CHECK(std::is_sorted(iref_.begin(), iref_.end()),
              "calibration curve: currents must ascend");
  for (std::size_t k = 1; k < resistance_.size(); ++k) {
    OXMLC_CHECK(resistance_[k] < resistance_[k - 1],
                "calibration curve: resistance must strictly decrease with current");
  }
}

namespace {
// Log-log interpolation of y(x) over sorted xs.
double interp_loglog(const std::vector<double>& xs, const std::vector<double>& ys, double x) {
  if (x <= xs.front()) {
    // Extrapolate with the first segment's slope.
    const double slope = std::log(ys[1] / ys[0]) / std::log(xs[1] / xs[0]);
    return ys[0] * std::pow(x / xs[0], slope);
  }
  if (x >= xs.back()) {
    const std::size_t n = xs.size();
    const double slope =
        std::log(ys[n - 1] / ys[n - 2]) / std::log(xs[n - 1] / xs[n - 2]);
    return ys[n - 1] * std::pow(x / xs[n - 1], slope);
  }
  const auto it = std::lower_bound(xs.begin(), xs.end(), x);
  const std::size_t hi = static_cast<std::size_t>(it - xs.begin());
  const std::size_t lo = hi - 1;
  const double w = std::log(x / xs[lo]) / std::log(xs[hi] / xs[lo]);
  return ys[lo] * std::pow(ys[hi] / ys[lo], w);
}
}  // namespace

double CalibrationCurve::resistance_at(double iref) const {
  OXMLC_CHECK(!empty(), "calibration curve is empty");
  OXMLC_CHECK(iref > 0.0, "calibration curve: current must be positive");
  return interp_loglog(iref_, resistance_, iref);
}

double CalibrationCurve::iref_for_resistance(double r) const {
  OXMLC_CHECK(!empty(), "calibration curve is empty");
  OXMLC_CHECK(r > 0.0, "calibration curve: resistance must be positive");
  // Resistance descends with current: search on the reversed axes.
  std::vector<double> rs(resistance_.rbegin(), resistance_.rend());
  std::vector<double> is(iref_.rbegin(), iref_.rend());
  return interp_loglog(rs, is, r);
}

std::string LevelAllocation::pattern(std::size_t value) const {
  std::string out(bits, '0');
  for (std::size_t b = 0; b < bits; ++b) {
    if (value & (std::size_t{1} << b)) out[bits - 1 - b] = '1';
  }
  return out;
}

LevelAllocation LevelAllocation::iso_delta_i(std::size_t bits, double i_min, double i_max,
                                             const CalibrationCurve& curve) {
  OXMLC_CHECK(bits >= 1 && bits <= 8, "allocation: bits must be in [1, 8]");
  OXMLC_CHECK(i_max > i_min && i_min > 0.0, "allocation: need 0 < i_min < i_max");
  LevelAllocation alloc;
  alloc.bits = bits;
  const std::size_t n = std::size_t{1} << bits;
  const double step = (i_max - i_min) / static_cast<double>(n - 1);
  for (std::size_t v = 0; v < n; ++v) {
    Level level;
    level.value = v;
    // value 0 = shallowest (i_max), max value = deepest (i_min), per Table 2.
    level.iref = i_max - static_cast<double>(v) * step;
    level.r_nominal = curve.empty() ? 0.0 : curve.resistance_at(level.iref);
    alloc.levels.push_back(level);
  }
  return alloc;
}

LevelAllocation LevelAllocation::iso_delta_r(std::size_t bits, double r_min, double r_max,
                                             const CalibrationCurve& curve) {
  OXMLC_CHECK(bits >= 1 && bits <= 8, "allocation: bits must be in [1, 8]");
  OXMLC_CHECK(r_max > r_min && r_min > 0.0, "allocation: need 0 < r_min < r_max");
  OXMLC_CHECK(!curve.empty(), "iso_delta_r requires a calibration curve");
  LevelAllocation alloc;
  alloc.bits = bits;
  const std::size_t n = std::size_t{1} << bits;
  const double step = (r_max - r_min) / static_cast<double>(n - 1);
  for (std::size_t v = 0; v < n; ++v) {
    Level level;
    level.value = v;
    level.r_nominal = r_min + static_cast<double>(v) * step;  // deepest = max value
    level.iref = curve.iref_for_resistance(level.r_nominal);
    alloc.levels.push_back(level);
  }
  return alloc;
}

const std::vector<PaperTable2Entry>& paper_table2() {
  // Table 2 of the paper, typo-corrected to the monotone bit sequence.
  static const std::vector<PaperTable2Entry> kTable = {
      {15, 6e-6, 267e3},   {14, 8e-6, 185e3},    {13, 10e-6, 153e3},
      {12, 12e-6, 125e3},  {11, 14e-6, 106e3},   {10, 16e-6, 92e3},
      {9, 18e-6, 81e3},    {8, 20e-6, 72.4e3},   {7, 22e-6, 65.3e3},
      {6, 24e-6, 59.4e3},  {5, 26e-6, 54.5e3},   {4, 28e-6, 50.3e3},
      {3, 30e-6, 46.6e3},  {2, 32e-6, 43.45e3},  {1, 34e-6, 40.65e3},
      {0, 36e-6, 38.17e3},
  };
  return kTable;
}

}  // namespace oxmlc::mlc

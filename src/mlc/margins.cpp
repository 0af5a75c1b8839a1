#include "mlc/margins.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace oxmlc::mlc {

MarginReport analyze_margins(const std::vector<LevelDistribution>& distributions) {
  MarginReport report;
  if (distributions.size() < 2) {
    // No adjacent pair exists; the spacings are undefined rather than zero
    // (zero would read as "levels touching", which is a different statement).
    report.minimal_nominal_spacing = std::numeric_limits<double>::quiet_NaN();
    report.worst_case_margin = std::numeric_limits<double>::quiet_NaN();
    return report;
  }
  report.minimal_nominal_spacing = std::numeric_limits<double>::infinity();
  report.worst_case_margin = std::numeric_limits<double>::infinity();

  for (std::size_t k = 0; k + 1 < distributions.size(); ++k) {
    const auto& lower = distributions[k];
    const auto& upper = distributions[k + 1];
    OXMLC_CHECK(!lower.resistance.empty() && !upper.resistance.empty(),
                "analyze_margins: empty sample set");

    AdjacentMargin margin;
    margin.nominal_spacing = upper.level.r_nominal - lower.level.r_nominal;

    const double max_lower =
        *std::max_element(lower.resistance.begin(), lower.resistance.end());
    const double min_upper =
        *std::min_element(upper.resistance.begin(), upper.resistance.end());
    margin.worst_case_margin = min_upper - max_lower;

    report.minimal_nominal_spacing =
        std::min(report.minimal_nominal_spacing, margin.nominal_spacing);
    report.worst_case_margin =
        std::min(report.worst_case_margin, margin.worst_case_margin);
    if (margin.worst_case_margin < 0.0) report.any_overlap = true;
    report.margins.push_back(margin);
  }
  return report;
}

std::vector<double> midpoint_thresholds(const LevelAllocation& allocation) {
  std::vector<double> thresholds;
  if (allocation.levels.size() < 2) {
    return thresholds;
  }
  thresholds.reserve(allocation.levels.size() - 1);
  for (std::size_t k = 0; k + 1 < allocation.levels.size(); ++k) {
    const double r_lower = allocation.levels[k].r_nominal;
    const double r_upper = allocation.levels[k + 1].r_nominal;
    OXMLC_CHECK(r_lower > 0.0 && r_upper >= r_lower,
                "midpoint_thresholds: allocation needs ascending positive r_nominal "
                "(build it with a calibration curve)");
    thresholds.push_back(std::sqrt(r_lower * r_upper));
  }
  return thresholds;
}

BerReport decode_ber(const std::vector<LevelDistribution>& distributions,
                     std::span<const double> thresholds) {
  OXMLC_CHECK(std::is_sorted(thresholds.begin(), thresholds.end()),
              "decode_ber: thresholds must be ascending");
  BerReport report;
  report.per_level_error.assign(distributions.size(), 0.0);
  for (std::size_t k = 0; k < distributions.size(); ++k) {
    const std::vector<double>& samples = distributions[k].resistance;
    std::size_t errors = 0;
    for (double r : samples) {
      const std::size_t decoded = static_cast<std::size_t>(
          std::upper_bound(thresholds.begin(), thresholds.end(), r) - thresholds.begin());
      if (decoded != k) ++errors;
    }
    report.samples += samples.size();
    report.errors += errors;
    report.per_level_error[k] =
        samples.empty() ? 0.0 : static_cast<double>(errors) / static_cast<double>(samples.size());
  }
  report.ber = report.samples == 0
                   ? 0.0
                   : static_cast<double>(report.errors) / static_cast<double>(report.samples);
  return report;
}

}  // namespace oxmlc::mlc

#include "mlc/projections.hpp"

#include <cstdint>
#include <limits>

namespace oxmlc::mlc {
namespace {

constexpr std::uint64_t kProjectionSeed = 0xA21C;

}  // namespace

std::vector<ProjectionRow> run_projections(const std::vector<std::size_t>& bit_widths,
                                           std::size_t trials) {
  std::vector<ProjectionRow> rows;
  for (std::size_t bits : bit_widths) {
    McStudyConfig config = paper_mc_study(bits, trials);
    config.mc.seed = kProjectionSeed;
    const auto distributions = run_level_study(config);
    const MarginReport report = analyze_margins(distributions);

    ProjectionRow row;
    row.bits = bits;
    row.minimal_spacing = report.minimal_nominal_spacing;
    row.worst_case_margin = report.worst_case_margin;
    row.overlap = report.any_overlap;

    row.min_read_delta_i = std::numeric_limits<double>::infinity();
    const auto& levels = config.qlc.allocation.levels;
    for (std::size_t v = 0; v + 1 < levels.size(); ++v) {
      const double delta = oxram::kReadVoltage / levels[v].r_nominal -
                           oxram::kReadVoltage / levels[v + 1].r_nominal;
      row.min_read_delta_i = std::min(row.min_read_delta_i, delta);
    }
    rows.push_back(row);
  }
  return rows;
}

}  // namespace oxmlc::mlc

// Projections beyond QLC (paper §4.4.2, Table 3): re-allocate the same
// 6-36 uA compliance window into 32 (5 bits) and 64 (6 bits) levels and
// measure how the nominal spacing and the worst-case Monte-Carlo margin decay.
#pragma once

#include <cstddef>
#include <vector>

#include "mlc/mc_study.hpp"

namespace oxmlc::mlc {

struct ProjectionRow {
  std::size_t bits = 0;
  double minimal_spacing = 0.0;    // "Minimal dR"
  double worst_case_margin = 0.0;  // "Worst case dR"
  bool overlap = false;            // any adjacent distributions overlapping
  double min_read_delta_i = 0.0;   // smallest adjacent read-current gap at 0.3 V
};

// Runs the margin analysis for each requested bit width. `trials` Monte-Carlo
// runs per level (the paper uses 500; the 6-bit study has 64 levels, so
// benches may pass fewer for wall-clock reasons — record what was used).
// Every width's study draws from the same seed.
std::vector<ProjectionRow> run_projections(const std::vector<std::size_t>& bit_widths,
                                           std::size_t trials);

}  // namespace oxmlc::mlc

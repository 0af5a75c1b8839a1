// Distribution and margin analysis of MLC levels (Figs. 11-12, Table 3).
//
// Definitions (matching the paper's usage):
//  - "Minimal dR": smallest *nominal* spacing between adjacent levels, i.e.
//    min_k ( R_nom[k+1] - R_nom[k] ). For the paper's 4-bit table this is the
//    38.17k -> 40.65k step = 2.48 kOhm, reported as 2.5 kOhm.
//  - "Worst case dR" (resistance margin): smallest gap between the *extreme
//    Monte-Carlo samples* of adjacent levels, min_k ( min(R[k+1]) - max(R[k]) ).
//    Negative values mean distribution overlap (decode failures possible).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mlc/levels.hpp"
#include "util/stats.hpp"

namespace oxmlc::mlc {

struct LevelDistribution {
  Level level;
  std::vector<double> resistance;  // MC samples (Ohm)
  std::vector<double> energy;      // MC samples (J)
  std::vector<double> latency;     // MC samples (s)

  BoxPlotSummary resistance_summary() const { return box_plot_summary(resistance); }
  BoxPlotSummary energy_summary() const { return box_plot_summary(energy); }
  BoxPlotSummary latency_summary() const { return box_plot_summary(latency); }
};

struct AdjacentMargin {
  double nominal_spacing = 0.0;    // R_nom[k+1] - R_nom[k]
  double worst_case_margin = 0.0;  // min(samples[k+1]) - max(samples[k])
};

struct MarginReport {
  std::vector<AdjacentMargin> margins;
  double minimal_nominal_spacing = 0.0;  // Table 3 "Minimal dR"
  double worst_case_margin = 0.0;        // Table 3 "Worst case dR"
  bool any_overlap = false;
};

// `distributions` must be ordered by level value (ascending resistance).
// Degenerate configurations with fewer than two levels have no adjacent
// pairs: the report comes back with empty `margins` and NaN spacings rather
// than throwing, so retention sweeps over reduced allocations stay total.
MarginReport analyze_margins(const std::vector<LevelDistribution>& distributions);

// Hard-decision decode statistics of the sampled distributions against a
// fixed threshold bank — the BER(t) quantity of the retention sweeps.
struct BerReport {
  std::size_t samples = 0;  // total decoded samples
  std::size_t errors = 0;   // samples decoding to a different level index
  double ber = 0.0;         // errors / samples (0 when samples == 0)
  std::vector<double> per_level_error;  // error fraction per input distribution
};

// Decode thresholds between adjacent levels: the geometric mean of each
// adjacent pair's nominal resistance (the midpoint in log-R, where the
// allocation window is closest to uniform). Ascending, size = count - 1;
// zero-width bands (equal nominals) produce duplicated thresholds, which
// decode_ber treats as an empty band rather than failing.
std::vector<double> midpoint_thresholds(const LevelAllocation& allocation);

// Decodes every resistance sample of `distributions[k]` against the ascending
// `thresholds` (sample r decodes to the number of thresholds <= r) and counts
// mismatches against k. `distributions` must be ordered as in analyze_margins.
BerReport decode_ber(const std::vector<LevelDistribution>& distributions,
                     std::span<const double> thresholds);

}  // namespace oxmlc::mlc

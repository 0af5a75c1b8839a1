// Terminal rendering of the paper's figures. Each bench binary prints both a
// machine-readable CSV and one of these ASCII charts so the figure's *shape*
// (monotonicity, crossover, spread) is visible directly in the test log.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace oxmlc {

enum class AxisScale { kLinear, kLog10 };

struct SeriesStyle {
  std::string label;
  char marker = '*';
};

// One named (x, y) series of a line/scatter chart.
struct Series {
  SeriesStyle style;
  std::vector<double> x;
  std::vector<double> y;
};

struct PlotOptions {
  std::string title;
  std::string x_label;
  std::string y_label;
  int width = 72;    // plot area columns
  int height = 20;   // plot area rows
  AxisScale x_scale = AxisScale::kLinear;
  AxisScale y_scale = AxisScale::kLinear;
};

// Scatter/line chart: plots every point of every series on a character grid
// with axis ticks and a legend. Log axes skip non-positive samples.
void plot_series(std::ostream& os, std::span<const Series> series, const PlotOptions& options);

// Horizontal box-and-whisker lanes (one per category), as in Figs. 11/13.
struct BoxLane {
  std::string label;
  BoxPlotSummary summary;
};

struct BoxPlotOptions {
  std::string title;
  std::string value_label;
  int width = 72;
  AxisScale scale = AxisScale::kLinear;
};

void plot_boxes(std::ostream& os, std::span<const BoxLane> lanes, const BoxPlotOptions& options);

}  // namespace oxmlc

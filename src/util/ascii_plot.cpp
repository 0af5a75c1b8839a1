#include "util/ascii_plot.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/table.hpp"

namespace oxmlc {
namespace {

struct AxisMap {
  double lo = 0.0;
  double hi = 1.0;
  AxisScale scale = AxisScale::kLinear;

  double transform(double v) const {
    return scale == AxisScale::kLog10 ? std::log10(v) : v;
  }

  // Finite, and positive on a log axis.
  bool usable(double v) const {
    return std::isfinite(v) && (scale != AxisScale::kLog10 || v > 0.0);
  }

  // Maps value -> [0,1]; caller guarantees usable(v).
  double unit(double v) const {
    const double t = transform(v);
    if (hi == lo) return 0.5;
    return (t - lo) / (hi - lo);
  }

  // Inverse of unit(): [0,1] -> value, for tick labels.
  double value_at(double u) const {
    const double t = lo + u * (hi - lo);
    return scale == AxisScale::kLog10 ? std::pow(10.0, t) : t;
  }
};

AxisMap fit_axis(std::span<const double> values, AxisScale scale) {
  AxisMap m;
  m.scale = scale;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (double v : values) {
    if (!m.usable(v)) continue;
    const double t = m.transform(v);
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  if (!std::isfinite(lo)) {
    lo = 0.0;
    hi = 1.0;
  }
  if (hi == lo) {
    // Widen a degenerate range so a flat series still renders mid-plot.
    const double pad = (scale == AxisScale::kLog10) ? 0.5 : (lo == 0.0 ? 1.0 : std::fabs(lo) * 0.1);
    lo -= pad;
    hi += pad;
  }
  m.lo = lo;
  m.hi = hi;
  return m;
}

std::string tick_text(double v) {
  std::ostringstream os;
  const double mag = std::fabs(v);
  if (v != 0.0 && (mag >= 1e5 || mag < 1e-3)) {
    os << std::scientific << std::setprecision(1) << v;
  } else {
    os << std::setprecision(4) << v;
  }
  return os.str();
}

}  // namespace

void plot_series(std::ostream& os, std::span<const Series> series, const PlotOptions& options) {
  OXMLC_CHECK(!series.empty(), "plot_series needs at least one series");
  OXMLC_CHECK(options.width >= 16 && options.height >= 4, "plot area too small");

  std::vector<double> all_x, all_y;
  for (const auto& s : series) {
    OXMLC_CHECK(s.x.size() == s.y.size(), "series x/y size mismatch: " + s.style.label);
    all_x.insert(all_x.end(), s.x.begin(), s.x.end());
    all_y.insert(all_y.end(), s.y.begin(), s.y.end());
  }
  const AxisMap xm = fit_axis(all_x, options.x_scale);
  const AxisMap ym = fit_axis(all_y, options.y_scale);

  const int w = options.width, h = options.height;
  std::vector<std::string> grid(static_cast<std::size_t>(h), std::string(static_cast<std::size_t>(w), ' '));

  for (const auto& s : series) {
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      if (!xm.usable(s.x[i]) || !ym.usable(s.y[i])) continue;
      const double ux = xm.unit(s.x[i]);
      const double uy = ym.unit(s.y[i]);
      if (ux < 0.0 || ux > 1.0 || uy < 0.0 || uy > 1.0) continue;
      const int col = std::min(w - 1, static_cast<int>(ux * (w - 1) + 0.5));
      const int row = std::min(h - 1, static_cast<int>((1.0 - uy) * (h - 1) + 0.5));
      grid[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] = s.style.marker;
    }
  }

  if (!options.title.empty()) os << options.title << '\n';
  // Legend.
  os << "  legend:";
  for (const auto& s : series) os << "  '" << s.style.marker << "' = " << s.style.label;
  os << '\n';

  const int label_w = 11;
  for (int row = 0; row < h; ++row) {
    std::string ylab;
    if (row == 0 || row == h - 1 || row == h / 2) {
      const double u = 1.0 - static_cast<double>(row) / (h - 1);
      ylab = tick_text(ym.value_at(u));
    }
    os << std::setw(label_w) << ylab << " |" << grid[static_cast<std::size_t>(row)] << '\n';
  }
  os << std::string(static_cast<std::size_t>(label_w + 1), ' ') << '+'
     << std::string(static_cast<std::size_t>(w), '-') << '\n';

  // X tick labels at left/mid/right.
  const std::string left = tick_text(xm.value_at(0.0));
  const std::string mid = tick_text(xm.value_at(0.5));
  const std::string right = tick_text(xm.value_at(1.0));
  std::string xline(static_cast<std::size_t>(label_w + 2 + w), ' ');
  const auto place = [&](const std::string& text, int center) {
    int start = center - static_cast<int>(text.size()) / 2;
    start = std::clamp(start, 0, static_cast<int>(xline.size()) - static_cast<int>(text.size()));
    xline.replace(static_cast<std::size_t>(start), text.size(), text);
  };
  place(left, label_w + 2);
  place(mid, label_w + 2 + w / 2);
  place(right, label_w + 1 + w);
  os << xline << '\n';
  if (!options.x_label.empty() || !options.y_label.empty()) {
    os << "  x: " << options.x_label;
    if (options.x_scale == AxisScale::kLog10) os << " [log]";
    os << "   y: " << options.y_label;
    if (options.y_scale == AxisScale::kLog10) os << " [log]";
    os << '\n';
  }
}

void plot_boxes(std::ostream& os, std::span<const BoxLane> lanes, const BoxPlotOptions& options) {
  OXMLC_CHECK(!lanes.empty(), "plot_boxes needs at least one lane");
  std::vector<double> extremes;
  for (const auto& lane : lanes) {
    extremes.push_back(lane.summary.minimum);
    extremes.push_back(lane.summary.maximum);
  }
  const AxisMap m = fit_axis(extremes, options.scale);
  const int w = options.width;

  std::size_t label_w = 0;
  for (const auto& lane : lanes) label_w = std::max(label_w, lane.label.size());

  if (!options.title.empty()) os << options.title << '\n';
  for (const auto& lane : lanes) {
    const auto& s = lane.summary;
    std::string row(static_cast<std::size_t>(w), ' ');
    auto col = [&](double v) {
      if (!m.usable(v)) return 0;
      const double u = std::clamp(m.unit(v), 0.0, 1.0);
      return static_cast<int>(u * (w - 1) + 0.5);
    };
    const int cw_lo = col(s.whisker_low), cq1 = col(s.q1), cmed = col(s.median),
              cq3 = col(s.q3), cw_hi = col(s.whisker_high);
    for (int c = cw_lo; c <= cw_hi; ++c) row[static_cast<std::size_t>(c)] = '-';
    for (int c = cq1; c <= cq3; ++c) row[static_cast<std::size_t>(c)] = '=';
    row[static_cast<std::size_t>(cw_lo)] = '|';
    row[static_cast<std::size_t>(cw_hi)] = '|';
    row[static_cast<std::size_t>(cq1)] = '[';
    row[static_cast<std::size_t>(cq3)] = ']';
    row[static_cast<std::size_t>(cmed)] = '#';
    for (double v : s.outliers) {
      const int c = col(v);
      if (row[static_cast<std::size_t>(c)] == ' ') row[static_cast<std::size_t>(c)] = 'o';
    }
    os << std::setw(static_cast<int>(label_w)) << lane.label << " " << row << '\n';
  }
  os << std::setw(static_cast<int>(label_w)) << "" << " "
     << tick_text(m.value_at(0.0)) << std::string(10, ' ') << "... "
     << options.value_label;
  if (options.scale == AxisScale::kLog10) os << " [log]";
  os << " ... " << tick_text(m.value_at(1.0)) << '\n';
  os << "  ('[' q1, '#' median, ']' q3, '|' whisker, 'o' outlier)\n";
}

}  // namespace oxmlc

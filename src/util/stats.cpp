#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace oxmlc {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  OXMLC_CHECK(n_ > 0, "mean of empty sample");
  return mean_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  OXMLC_CHECK(n_ > 0, "min of empty sample");
  return min_;
}

double RunningStats::max() const {
  OXMLC_CHECK(n_ > 0, "max of empty sample");
  return max_;
}

double quantile(std::span<const double> sorted_values, double q) {
  OXMLC_CHECK(q >= 0.0 && q <= 1.0, "quantile level must be in [0,1]");
  if (sorted_values.empty()) {
    // An empty sample has no quantiles; NaN propagates visibly through any
    // downstream arithmetic where a throw would abort a whole sweep.
    return std::numeric_limits<double>::quiet_NaN();
  }
  const std::size_t n = sorted_values.size();
  if (n == 1) return sorted_values[0];
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_values[lo] + frac * (sorted_values[hi] - sorted_values[lo]);
}

BoxPlotSummary box_plot_summary(std::span<const double> values) {
  if (values.empty()) {
    BoxPlotSummary s;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    s.minimum = s.q1 = s.median = s.q3 = s.maximum = nan;
    s.whisker_low = s.whisker_high = s.mean = s.stddev = nan;
    return s;
  }
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());

  BoxPlotSummary s;
  s.count = sorted.size();
  s.minimum = sorted.front();
  s.maximum = sorted.back();
  s.q1 = quantile(sorted, 0.25);
  s.median = quantile(sorted, 0.50);
  s.q3 = quantile(sorted, 0.75);

  RunningStats rs;
  for (double v : sorted) rs.add(v);
  s.mean = rs.mean();
  s.stddev = rs.stddev();

  const double iqr = s.q3 - s.q1;
  const double fence_low = s.q1 - 1.5 * iqr;
  const double fence_high = s.q3 + 1.5 * iqr;
  s.whisker_low = s.maximum;
  s.whisker_high = s.minimum;
  for (double v : sorted) {
    if (v >= fence_low) {
      s.whisker_low = v;
      break;
    }
  }
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    if (*it <= fence_high) {
      s.whisker_high = *it;
      break;
    }
  }
  for (double v : sorted) {
    if (v < fence_low || v > fence_high) s.outliers.push_back(v);
  }
  return s;
}

EmpiricalCdf empirical_cdf(std::span<const double> values) {
  EmpiricalCdf cdf;  // empty sample -> empty curve (nothing to plot, no UB)
  cdf.x.assign(values.begin(), values.end());
  std::sort(cdf.x.begin(), cdf.x.end());
  cdf.p.resize(cdf.x.size());
  const auto n = static_cast<double>(cdf.x.size());
  for (std::size_t i = 0; i < cdf.x.size(); ++i) {
    cdf.p[i] = static_cast<double>(i + 1) / n;
  }
  return cdf;
}

}  // namespace oxmlc

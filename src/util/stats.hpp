// Descriptive statistics used by the Monte-Carlo engine and the benchmark
// harness: moments, quantiles, box-plot summaries (the paper reports Figs. 11
// and 13 as box plots) and empirical CDFs (Fig. 3).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace oxmlc {

// Streaming accumulator for mean/variance (Welford) plus min/max.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const;
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Linear-interpolation quantile (type 7, the R/NumPy default).
// `q` in [0,1] (out-of-range q throws InvalidArgumentError). Degenerate
// samples degrade gracefully: empty input returns NaN, a single sample is
// returned for every q.
double quantile(std::span<const double> sorted_values, double q);

// Five-number box-plot summary with Tukey whiskers (1.5 IQR) and outliers,
// matching what a Fig. 11/13-style box plot displays. An empty sample yields
// count = 0 with every statistic NaN; a single sample collapses the box onto
// that value (stddev 0, no outliers).
struct BoxPlotSummary {
  std::size_t count = 0;
  double minimum = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double maximum = 0.0;
  double whisker_low = 0.0;   // smallest sample >= q1 - 1.5*IQR
  double whisker_high = 0.0;  // largest sample <= q3 + 1.5*IQR
  double mean = 0.0;
  double stddev = 0.0;
  std::vector<double> outliers;  // samples outside the whiskers

  double iqr() const { return q3 - q1; }
};

BoxPlotSummary box_plot_summary(std::span<const double> values);

// Empirical CDF evaluated on the sample points: returns (sorted x, P(X<=x)).
// An empty sample returns an empty curve.
struct EmpiricalCdf {
  std::vector<double> x;
  std::vector<double> p;
};

EmpiricalCdf empirical_cdf(std::span<const double> values);

}  // namespace oxmlc

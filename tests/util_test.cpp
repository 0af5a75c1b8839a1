#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>

#include "util/ascii_plot.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/schema.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace oxmlc {
namespace {

// ---------------------------------------------------------------------------
// error handling
// ---------------------------------------------------------------------------

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    OXMLC_CHECK(1 == 2, "the answer is wrong");
    FAIL() << "expected throw";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("the answer is wrong"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, HierarchyIsCatchableAsBase) {
  EXPECT_THROW(throw ConvergenceError("x"), Error);
  EXPECT_THROW(throw InternalError("x"), Error);
}

// ---------------------------------------------------------------------------
// literal reader
// ---------------------------------------------------------------------------

TEST(Parse, UnsignedReadsCIntegerSyntaxWithoutSign) {
  EXPECT_EQ(util::parse_unsigned("0x10"), 16u);
  EXPECT_EQ(util::parse_unsigned("010"), 8u);  // leading 0: octal, as stoull(.., 0)
  EXPECT_EQ(util::parse_unsigned("18446744073709551615"), ~std::uint64_t{0});
  for (const char* bad : {"-1", "+1", "", "18446744073709551616", "1e3", " 1", "0x", "5x"}) {
    EXPECT_FALSE(util::parse_unsigned(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Parse, RealIsFiniteAndTakesNoSuffix) {
  EXPECT_EQ(util::parse_real("-2.5e-3"), -2.5e-3);
  EXPECT_EQ(util::parse_real("400"), 400.0);
  for (const char* bad : {"400M", "nan", "inf", "-inf", "1e400", "", " 1"}) {
    EXPECT_FALSE(util::parse_real(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Parse, SiScalesAndJudgesTheUnitTail) {
  EXPECT_EQ(util::parse_si("2.5meg"), 2.5e6);
  EXPECT_EQ(util::parse_si("2.5MEG"), 2.5e6);
  EXPECT_EQ(util::parse_si("36uA"), 36e-6);
  EXPECT_EQ(util::parse_si("10kohm"), 10e3);
  EXPECT_EQ(util::parse_si("1e-9"), 1e-9);
  // Strict form: letters after the suffix must be a unit word.
  EXPECT_FALSE(util::parse_si("1mxyz").has_value());
  // Tail form: the token parses and the caller gets the tail to judge.
  std::string tail;
  EXPECT_EQ(util::parse_si("1mxyz", &tail), 1e-3);
  EXPECT_EQ(tail, "xyz");
  EXPECT_FALSE(util::known_unit_tail(tail));
  EXPECT_TRUE(util::known_unit_tail("ohm"));
  for (const char* bad : {"nan", "inf", "1e400", "1e300t", "", "k"}) {
    EXPECT_FALSE(util::parse_si(bad).has_value()) << "'" << bad << "'";
    EXPECT_FALSE(util::parse_si(bad, &tail).has_value()) << "'" << bad << "'";
  }
}

TEST(Parse, ParseErrorCarriesTheLine) {
  const util::ParseError e("trace", 7, "cycle expects an unsigned integer");
  EXPECT_EQ(e.line(), 7u);
  EXPECT_STREQ(e.what(), "trace line 7: cycle expects an unsigned integer");
  EXPECT_THROW(throw e, InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// report schema registry
// ---------------------------------------------------------------------------

// The version strings are a wire contract with CI assertions, compare_bench
// and downstream loaders: each one is pinned verbatim. Bumping a schema means
// minting a new tag in util/schema.hpp AND updating this test in the same
// change — that is the point.
TEST(Schema, VersionStringsArePinned) {
  EXPECT_STREQ(util::kMetricsSchema, "oxmlc.metrics.v1");
  EXPECT_STREQ(util::kLintSchema, "oxmlc.lint.v2");
  EXPECT_STREQ(util::kRetentionSchema, "oxmlc.retention.v1");
  EXPECT_STREQ(util::kMemsysSchema, "oxmlc.memsys.v1");
  EXPECT_STREQ(util::kEccSchema, "oxmlc.ecc.v1");
}

TEST(Schema, TagsAreDistinctAndNamespaced) {
  const std::set<std::string> tags = {
      util::kMetricsSchema, util::kLintSchema, util::kRetentionSchema,
      util::kMemsysSchema, util::kEccSchema};
  EXPECT_EQ(tags.size(), 5u) << "two reports share a schema tag";
  for (const std::string& tag : tags) {
    EXPECT_EQ(tag.rfind("oxmlc.", 0), 0u) << tag;
    EXPECT_NE(tag.find(".v"), std::string::npos) << tag << " lacks a version";
  }
}

// ---------------------------------------------------------------------------
// rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndRange) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.uniform(2.0, 4.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.02);
  EXPECT_GE(stats.min(), 2.0);
  EXPECT_LT(stats.max(), 4.0);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalIsPositiveWithMatchingLogMoments) {
  Rng rng(17);
  RunningStats log_stats;
  for (int i = 0; i < 50000; ++i) {
    const double x = rng.lognormal(0.0, 0.2);
    ASSERT_GT(x, 0.0);
    log_stats.add(std::log(x));
  }
  EXPECT_NEAR(log_stats.mean(), 0.0, 0.01);
  EXPECT_NEAR(log_stats.stddev(), 0.2, 0.01);
}

TEST(Rng, TruncatedNormalRespectsBounds) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.truncated_normal(1.0, 0.5, 0.8, 1.2);
    EXPECT_GE(x, 0.8);
    EXPECT_LE(x, 1.2);
  }
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(23);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 400);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(31);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += child1.next_u64() == child2.next_u64();
  EXPECT_LT(equal, 2);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(55), b(55);
  Rng ca = a.split(), cb = b.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ca.next_u64(), cb.next_u64());
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(sorted, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(sorted, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(sorted, 0.25), 1.75);
}

TEST(Stats, QuantileRejectsOutOfRangeLevel) {
  const std::vector<double> one = {1.0};
  EXPECT_THROW(quantile(one, 1.5), InvalidArgumentError);
  EXPECT_THROW(quantile(one, -0.1), InvalidArgumentError);
}

TEST(Stats, QuantileDegradesGracefullyOnDegenerateSamples) {
  const std::vector<double> empty;
  EXPECT_TRUE(std::isnan(quantile(empty, 0.0)));
  EXPECT_TRUE(std::isnan(quantile(empty, 0.5)));
  EXPECT_TRUE(std::isnan(quantile(empty, 1.0)));
  // A single sample is every quantile of itself.
  const std::vector<double> one = {42.0};
  EXPECT_DOUBLE_EQ(quantile(one, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(quantile(one, 0.37), 42.0);
  EXPECT_DOUBLE_EQ(quantile(one, 1.0), 42.0);
}

TEST(Stats, BoxPlotSummaryHandlesEmptyAndSingleSample) {
  const std::vector<double> empty;
  const BoxPlotSummary none = box_plot_summary(empty);
  EXPECT_EQ(none.count, 0u);
  EXPECT_TRUE(std::isnan(none.median));
  EXPECT_TRUE(std::isnan(none.q1));
  EXPECT_TRUE(std::isnan(none.q3));
  EXPECT_TRUE(std::isnan(none.mean));
  EXPECT_TRUE(std::isnan(none.stddev));
  EXPECT_TRUE(none.outliers.empty());

  const std::vector<double> one = {7.0};
  const BoxPlotSummary single = box_plot_summary(one);
  EXPECT_EQ(single.count, 1u);
  EXPECT_DOUBLE_EQ(single.minimum, 7.0);
  EXPECT_DOUBLE_EQ(single.q1, 7.0);
  EXPECT_DOUBLE_EQ(single.median, 7.0);
  EXPECT_DOUBLE_EQ(single.q3, 7.0);
  EXPECT_DOUBLE_EQ(single.maximum, 7.0);
  EXPECT_DOUBLE_EQ(single.whisker_low, 7.0);
  EXPECT_DOUBLE_EQ(single.whisker_high, 7.0);
  EXPECT_DOUBLE_EQ(single.stddev, 0.0);
  EXPECT_TRUE(single.outliers.empty());
}

TEST(Stats, EmpiricalCdfOfEmptySampleIsEmpty) {
  const std::vector<double> empty;
  const EmpiricalCdf cdf = empirical_cdf(empty);
  EXPECT_TRUE(cdf.x.empty());
  EXPECT_TRUE(cdf.p.empty());
}

TEST(Stats, BoxPlotSummaryIdentifiesOutliers) {
  std::vector<double> values = {10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 100};
  const BoxPlotSummary s = box_plot_summary(values);
  EXPECT_EQ(s.count, values.size());
  EXPECT_DOUBLE_EQ(s.maximum, 100.0);
  ASSERT_EQ(s.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(s.outliers[0], 100.0);
  EXPECT_LE(s.whisker_high, 19.0);
  EXPECT_GE(s.q3, s.median);
  EXPECT_GE(s.median, s.q1);
}

TEST(Stats, EmpiricalCdfIsMonotone) {
  Rng rng(5);
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) values.push_back(rng.normal(0, 1));
  const EmpiricalCdf cdf = empirical_cdf(values);
  ASSERT_EQ(cdf.x.size(), values.size());
  EXPECT_DOUBLE_EQ(cdf.p.back(), 1.0);
  for (std::size_t i = 1; i < cdf.x.size(); ++i) {
    EXPECT_LE(cdf.x[i - 1], cdf.x[i]);
    EXPECT_LT(cdf.p[i - 1], cdf.p[i]);
  }
}

// ---------------------------------------------------------------------------
// table
// ---------------------------------------------------------------------------

TEST(Table, RendersAlignedRows) {
  Table t({"state", "IrefR (uA)", "RHRS (kOhm)"});
  t.add_row({"1111", "6", "267"});
  t.add_row({"0000", "36", "38.17"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("1111"), std::string::npos);
  EXPECT_NE(out.find("38.17"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RowArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgumentError);
}

TEST(Table, CsvEscapesSpecialCells) {
  Table t({"name", "value"});
  t.add_row({"with,comma", "with\"quote"});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_NE(os.str().find("\"with,comma\""), std::string::npos);
  EXPECT_NE(os.str().find("\"with\"\"quote\""), std::string::npos);
}

TEST(Table, FormatSiPicksPrefixes) {
  EXPECT_EQ(format_si(2.6e-6, "s", 3), "2.6 us");
  EXPECT_EQ(format_si(152e3, "Ohm", 4), "152 kOhm");
  EXPECT_EQ(format_si(0.0, "A"), "0 A");
  EXPECT_EQ(format_si(25e-12, "J", 3), "25 pJ");
}

// ---------------------------------------------------------------------------
// ascii plots (rendering sanity: no crashes, expected landmarks)
// ---------------------------------------------------------------------------

TEST(AsciiPlot, SeriesPlotContainsLegendAndAxes) {
  Series s;
  s.style = {"test-series", '*'};
  for (int i = 0; i <= 10; ++i) {
    s.x.push_back(i);
    s.y.push_back(i * i);
  }
  std::ostringstream os;
  PlotOptions options;
  options.title = "parabola";
  options.x_label = "x";
  options.y_label = "y";
  plot_series(os, std::vector<Series>{s}, options);
  EXPECT_NE(os.str().find("parabola"), std::string::npos);
  EXPECT_NE(os.str().find("test-series"), std::string::npos);
  EXPECT_NE(os.str().find('*'), std::string::npos);
}

TEST(AsciiPlot, LogScaleSkipsNonPositive) {
  Series s;
  s.style = {"log", 'o'};
  s.x = {0.0, 1.0, 10.0, 100.0};  // zero must be skipped on log axis
  s.y = {1.0, 10.0, 100.0, 1000.0};
  std::ostringstream os;
  PlotOptions options;
  options.x_scale = AxisScale::kLog10;
  options.y_scale = AxisScale::kLog10;
  EXPECT_NO_THROW(plot_series(os, std::vector<Series>{s}, options));
}

TEST(AsciiPlot, FlatSeriesStillRenders) {
  Series s;
  s.style = {"flat", '#'};
  s.x = {0, 1, 2};
  s.y = {5, 5, 5};
  std::ostringstream os;
  EXPECT_NO_THROW(plot_series(os, std::vector<Series>{s}, PlotOptions{}));
}

TEST(AsciiPlot, BoxLanesShowMedianMarker) {
  std::vector<double> samples;
  Rng rng(9);
  for (int i = 0; i < 200; ++i) samples.push_back(rng.normal(100.0, 5.0));
  BoxLane lane{"6 uA", box_plot_summary(samples)};
  std::ostringstream os;
  plot_boxes(os, std::vector<BoxLane>{lane}, BoxPlotOptions{});
  EXPECT_NE(os.str().find('#'), std::string::npos);
  EXPECT_NE(os.str().find("6 uA"), std::string::npos);
}

TEST(AsciiPlot, EmptyBoxLaneRendersItsRow) {
  // A lane with no samples summarizes to NaN quartiles; it must render at the
  // axis origin, not index the row with a NaN cast to int.
  BoxLane lane{"empty", box_plot_summary({})};
  std::ostringstream os;
  plot_boxes(os, std::vector<BoxLane>{lane}, BoxPlotOptions{});
  EXPECT_NE(os.str().find("empty #"), std::string::npos) << os.str();
}

}  // namespace
}  // namespace oxmlc

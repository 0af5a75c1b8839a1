#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "mlc/retention.hpp"
#include "obs/json.hpp"
#include "oxram/drift.hpp"
#include "util/error.hpp"
#include "util/schema.hpp"

namespace oxmlc::mlc {
namespace {

// Small sweeps keep the MC depth affordable in the test suite; the full
// paper-scale study runs in bench_retention_drift and the CLI.
RetentionConfig small_config(std::size_t bits, std::size_t trials) {
  RetentionConfig config = RetentionConfig::paper_default(bits, trials);
  config.study.mc.threads = 1;
  return config;
}

TEST(Retention, PaperDefaultCoversDecades) {
  const RetentionConfig config = RetentionConfig::paper_default();
  ASSERT_GE(config.times.size(), 2u);
  EXPECT_TRUE(std::is_sorted(config.times.begin(), config.times.end()));
  EXPECT_GE(config.times.back() / config.times.front(), 1e9);
}

TEST(Retention, RejectsBadObservationTimes) {
  RetentionConfig config = small_config(2, 4);
  config.times.clear();
  EXPECT_THROW(run_retention_comparison(config), InvalidArgumentError);
  config.times = {1.0, 0.5};
  EXPECT_THROW(run_retention_comparison(config), InvalidArgumentError);
}

// Acceptance: over decades of time the unverified worst-case inter-level
// window closes monotonically — both drift components only ever move states
// toward LRS, and the deeper level of every adjacent pair loses resistance
// faster.
TEST(Retention, MarginClosureIsMonotoneOverDecades) {
  RetentionConfig config = small_config(4, 16);
  const RetentionReport report = run_retention_comparison(config).verify_off;

  ASSERT_EQ(report.points.size(), config.times.size());
  EXPECT_TRUE(std::isfinite(report.initial_margins.worst_case_margin));
  EXPECT_GT(report.initial_margins.worst_case_margin, 0.0);
  // The *open* window (margin clamped at zero) closes monotonically: every
  // trajectory moves toward LRS, so a pair's gap can only shrink while it is
  // still positive. Once a pair has inverted, the ohmic overlap of the
  // collapsed tail sample is not a monotone quantity — the low-R tail moves
  // more slowly in ohms than the level chasing it — so the raw margin is not
  // pinned past zero.
  double prev = std::max(report.initial_margins.worst_case_margin, 0.0);
  const double slack = 1e-9 * prev;
  for (const RetentionPoint& point : report.points) {
    const double open = std::max(point.margins.worst_case_margin, 0.0);
    EXPECT_LE(open, prev + slack) << "t = " << point.t;
    prev = open;
  }
  // The decade ladder ends deep enough that real margin is actually lost.
  EXPECT_LT(report.points.back().margins.worst_case_margin,
            0.9 * report.initial_margins.worst_case_margin);
  // Decode errors accumulate as states drift out of band: each trajectory is
  // monotone, so a trial that left its band never returns (the slack covers
  // the rare overshoot cell that first drifts down *into* its band).
  const double ber_slack = 2.0 / static_cast<double>(report.initial_ber.samples);
  double prev_ber = report.initial_ber.ber;
  for (const RetentionPoint& point : report.points) {
    EXPECT_GE(point.ber.ber, prev_ber - ber_slack) << "t = " << point.t;
    prev_ber = point.ber.ber;
  }
  EXPECT_GE(report.points.back().ber.ber, report.initial_ber.ber);
}

// Acceptance: the relaxation-aware verify recovers at least half of the
// drift-lost window while the fast component dominates the loss (the slow
// retention component is a per-cell activation no verify can filter).
TEST(Retention, RelaxVerifyRecoversAtLeastHalfTheLostWindow) {
  RetentionConfig config = small_config(4, 24);
  config.times = {1e-3, 1e-2, 1e-1, 1.0};  // fast-relaxation-dominated decades
  config.verify_max_passes = 5;
  const RetentionComparison comparison = run_retention_comparison(config);

  // One as-programmed population: both branches observe copies of its words.
  EXPECT_EQ(comparison.verify_off.seed, comparison.verify_on.seed);
  EXPECT_EQ(comparison.verify_off.initial_margins.worst_case_margin,
            comparison.verify_on.initial_margins.worst_case_margin);
  EXPECT_GT(comparison.verify_on.verify_reprogrammed, 0u);
  EXPECT_EQ(comparison.verify_off.verify_reprogrammed, 0u);

  const double initial = comparison.verify_off.initial_margins.worst_case_margin;
  const double off = comparison.verify_off.points.back().margins.worst_case_margin;
  const double on = comparison.verify_on.points.back().margins.worst_case_margin;
  EXPECT_LT(off, initial);  // drift really lost window in the unverified branch
  EXPECT_GT(on, off);       // and the verify bought some of it back
  const double recovered = recovered_window_fraction(comparison);
  EXPECT_GE(recovered, 0.5) << "initial " << initial << " off " << off << " on " << on;
}

// Mirrors the MC runner's bit-identity contract: a retention report depends
// only on the seed, never on the worker count that computed it.
TEST(Retention, ReportsBitIdenticalAcrossThreadCounts) {
  RetentionConfig config = small_config(2, 12);
  config.times = {1e-2, 1.0, 1e4};
  config.study.mc.seed = 0xB5EED;

  config.study.mc.threads = 1;
  const std::string reference = to_json(run_retention_comparison(config)).dump(2);
  for (std::size_t threads : {2, 5}) {
    config.study.mc.threads = threads;
    const std::string parallel = to_json(run_retention_comparison(config)).dump(2);
    EXPECT_EQ(parallel, reference) << "threads=" << threads;
  }
}

TEST(Retention, SeedChangesTheReport) {
  RetentionConfig config = small_config(2, 8);
  config.times = {1.0};
  const RetentionComparison a = run_retention_comparison(config);
  config.study.mc.seed ^= 0x1234;
  const RetentionComparison b = run_retention_comparison(config);
  EXPECT_EQ(a.verify_off.seed ^ 0x1234, b.verify_off.seed);
  EXPECT_NE(to_json(a.verify_off).dump(), to_json(b.verify_off).dump());
  EXPECT_NE(to_json(a.verify_on).dump(), to_json(b.verify_on).dump());
}

TEST(Retention, JsonReportFollowsSchema) {
  RetentionConfig config = small_config(2, 6);
  config.times = {1e-2, 1e2};
  const RetentionComparison comparison = run_retention_comparison(config);

  // Round-trip through the parser: the report must be well-formed JSON.
  const obs::Json report = obs::Json::parse(to_json(comparison).dump(2));
  EXPECT_EQ(report.get("schema").as_string(), util::kRetentionSchema);
  EXPECT_EQ(report.get("mode").as_string(), "comparison");
  const obs::Json& off = report.get("verify_off");
  const obs::Json& on = report.get("verify_on");
  EXPECT_FALSE(off.get("relax_verify").as_bool());
  EXPECT_TRUE(on.get("relax_verify").as_bool());
  ASSERT_EQ(off.get("points").size(), 2u);
  const obs::Json& point = off.get("points").at(0);
  EXPECT_DOUBLE_EQ(point.get("t_s").as_number(), 1e-2);
  EXPECT_EQ(point.get("per_level").size(), 4u);  // 2 bits -> 4 levels
  const obs::Json& recovery = report.get("recovery");
  EXPECT_TRUE(recovery.contains("recovered_fraction"));
  EXPECT_DOUBLE_EQ(recovery.get("time_s").as_number(), 1e2);

  const obs::Json single = obs::Json::parse(to_json(comparison.verify_off).dump());
  EXPECT_EQ(single.get("schema").as_string(), util::kRetentionSchema);
  EXPECT_EQ(single.get("mode").as_string(), "single");
}

// The comparison at `oxmlc_sim --retention --bits 4 --trials 6 --seed 99`,
// pinned to what it read when each branch sampled, formed and programmed its
// own population from the shared seed. Both branches now observe copies of
// one programmed word per trial, so these values must not move.
TEST(RetentionPin, ComparisonMatchesParent) {
  RetentionConfig config = RetentionConfig::paper_default(4, 6);
  config.study.mc.seed = 99;
  const RetentionComparison comparison = run_retention_comparison(config);
  const RetentionReport& off = comparison.verify_off;
  const RetentionReport& on = comparison.verify_on;

  const double initial = 2415.156800376477;
  const std::vector<double> margin_off = {
      -3391.2904162054256, -3433.4326334765065, -3452.1660362963157, -3536.29456510178,
      -3749.3663239127345, -4354.239467566593,  -5115.435333221169,  -5749.373804291958,
      -6278.520172297911,  -6889.690808414394,  -7597.280226946401};
  const std::vector<double> margin_on = {
      1889.2643083052462, 1475.9567386707859, 1478.62013136709,   1338.1290536781817,
      704.4146896116217,  -0.8742657943294034, -613.5439221555716, -1130.6159192034029,
      -3397.6687157340057, -9531.572276411112, -14489.153283217485};
  const std::vector<std::size_t> errors_off = {17, 17, 18, 23, 47, 71, 85, 89, 90, 90, 90};
  const std::vector<std::size_t> errors_on = {0, 4, 4, 6, 37, 66, 84, 89, 90, 90, 90};

  EXPECT_EQ(off.initial_margins.worst_case_margin, initial);
  EXPECT_EQ(on.initial_margins.worst_case_margin, initial);
  ASSERT_EQ(off.points.size(), margin_off.size());
  ASSERT_EQ(on.points.size(), margin_on.size());
  for (std::size_t k = 0; k < margin_off.size(); ++k) {
    EXPECT_EQ(off.points[k].margins.worst_case_margin, margin_off[k]) << "point " << k;
    EXPECT_EQ(on.points[k].margins.worst_case_margin, margin_on[k]) << "point " << k;
    EXPECT_EQ(off.points[k].ber.errors, errors_off[k]) << "point " << k;
    EXPECT_EQ(on.points[k].ber.errors, errors_on[k]) << "point " << k;
  }
  EXPECT_EQ(off.verify_reprogrammed, 0u);
  EXPECT_EQ(off.verify_unrecovered, 0u);
  EXPECT_EQ(on.verify_reprogrammed, 26u);
  EXPECT_EQ(on.verify_unrecovered, 5u);
}

// ---------------------------------------------------------------------------
// DriftingWord vs the per-cell flow
// ---------------------------------------------------------------------------

std::uint64_t bits_of(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// The per-cell reference flow DriftingWord is held to, one cell at a time:
// its own trajectory state on drifted_gap(), a program() per cell, then the
// relaxation and drift draws.
struct ReplayCell {
  oxram::FastCell cell;
  Rng rng;
  std::size_t target = 0;
  double anchor = 0.0;
  double relax_amp = 0.0;
  double drift_amp = 0.0;
  double t_anchor = 0.0;
  double offset = 0.0;

  double gap_at(const oxram::DriftParams& drift, double t) const {
    const double g = oxram::drifted_gap(drift, anchor, cell.params().g_min, relax_amp,
                                        drift_amp, std::max(t - t_anchor, 0.0));
    return std::clamp(g + offset, cell.params().g_min, cell.params().g_max);
  }

  void reprogram(const QlcProgrammer& programmer, const oxram::DriftParams& drift, double t) {
    programmer.program(cell, target, rng);
    anchor = cell.gap();
    t_anchor = t;
    offset = 0.0;
    relax_amp = oxram::sample_relaxation_amplitude(drift, rng);
  }

  std::size_t sense(const QlcProgrammer& programmer, const oxram::DriftParams& drift,
                    const oxram::ReadDisturbModel& disturb, double t) {
    const double g = gap_at(drift, t);
    const double g_disturbed = oxram::disturbed_gap(cell, g, 1, disturb);
    offset += g_disturbed - g;
    cell.set_gap(g_disturbed);
    return programmer.read_level(cell, rng);
  }
};

// Every seed draws a word of 1-33 cells with random 4-bit targets and runs
// it through relax_verify, an observation, three scrub events and a final
// sense; the per-cell replay of the same steps must match it bitwise.
class DriftingWordEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DriftingWordEquivalence, LockstepWordIsBitwiseThePerCellFlow) {
  static const QlcProgrammer programmer(QlcConfig::paper_default());
  const QlcConfig& qlc = programmer.config();
  oxram::DriftParams drift;
  drift.relax_fraction = 0.05;  // amplified so verify and scrub find work
  const oxram::ReadDisturbModel disturb;
  constexpr double kTau = kVerifyWait;
  constexpr std::size_t kPasses = 3;
  const double kScrubTimes[] = {1e5, 1e6, 1e7};

  Rng rng(GetParam());
  const std::size_t n = 1 + rng.uniform_index(33);
  std::vector<oxram::FastCell> cells;
  std::vector<Rng> rngs;
  std::vector<std::size_t> targets;
  for (std::size_t i = 0; i < n; ++i) {
    targets.push_back(rng.uniform_index(qlc.allocation.count()));
    rngs.push_back(rng.split());
    const oxram::OxramParams device =
        oxram::sample_device(qlc.nominal_cell, qlc.variability, rngs.back());
    cells.push_back(oxram::FastCell::formed_lrs(device, qlc.stack));
  }
  std::vector<ReplayCell> replay;
  for (std::size_t i = 0; i < n; ++i) replay.push_back({cells[i], rngs[i], targets[i]});

  DriftingWord word(programmer, drift, cells, rngs, targets);
  const DriftingWord::VerifyCounts verify = word.relax_verify(kPasses);
  std::vector<double> r_word(n);
  for (std::size_t i = 0; i < n; ++i) r_word[i] = word.resistance_at(i, 1.0);
  std::vector<std::size_t> levels_word;
  std::size_t scrubbed_word = 0;
  for (const double t : kScrubTimes) {
    std::vector<std::size_t> slipped;
    for (std::size_t i = 0; i < n; ++i) {
      levels_word.push_back(word.sense(i, t));
      if (levels_word.back() != targets[i]) slipped.push_back(i);
    }
    word.reprogram(slipped, t);
    scrubbed_word += slipped.size();
  }
  for (std::size_t i = 0; i < n; ++i) levels_word.push_back(word.sense(i, 2e7));

  std::size_t verify_reprograms = 0;
  std::size_t unrecovered = 0;
  std::size_t scrubbed_replay = 0;
  for (ReplayCell& c : replay) {
    programmer.program(c.cell, c.target, c.rng);
    c.anchor = c.cell.gap();
    c.relax_amp = oxram::sample_relaxation_amplitude(drift, c.rng);
    c.drift_amp = oxram::sample_drift_amplitude(drift, c.rng);
    double t_now = 0.0;
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      t_now += kTau;
      if (c.sense(programmer, drift, disturb, t_now) == c.target) break;
      if (pass + 1 == kPasses) {
        ++unrecovered;
        break;
      }
      c.reprogram(programmer, drift, t_now);
      ++verify_reprograms;
    }
  }
  std::vector<std::size_t> levels_replay;
  for (std::size_t i = 0; i < n; ++i) {
    ReplayCell& c = replay[i];
    c.cell.set_gap(c.gap_at(drift, 1.0));
    EXPECT_EQ(bits_of(c.cell.read().r_cell), bits_of(r_word[i]))
        << "cell " << i;
  }
  for (const double t : kScrubTimes) {
    for (ReplayCell& c : replay) {
      levels_replay.push_back(c.sense(programmer, drift, disturb, t));
      if (levels_replay.back() == c.target) continue;
      c.reprogram(programmer, drift, t);
      ++scrubbed_replay;
    }
  }
  for (ReplayCell& c : replay) levels_replay.push_back(c.sense(programmer, drift, disturb, 2e7));

  RecordProperty("cells", static_cast<int>(n));
  RecordProperty("verify_reprograms", static_cast<int>(verify_reprograms));
  RecordProperty("scrub_reprograms", static_cast<int>(scrubbed_replay));
  EXPECT_EQ(verify.reprogrammed, verify_reprograms);
  EXPECT_EQ(verify.unrecovered, unrecovered);
  EXPECT_EQ(scrubbed_word, scrubbed_replay);
  EXPECT_EQ(levels_word, levels_replay);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(bits_of(word.cell(i).gap()), bits_of(replay[i].cell.gap())) << "cell " << i;
    Rng next = word.rng(i);
    EXPECT_EQ(next.next_u64(), replay[i].rng.next_u64()) << "cell " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DriftingWordEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace oxmlc::mlc

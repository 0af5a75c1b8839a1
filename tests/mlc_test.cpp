#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "mlc/levels.hpp"
#include "mlc/margins.hpp"
#include "mlc/mc_study.hpp"
#include "mlc/program.hpp"
#include "oxram/presets.hpp"
#include "oxram/reference_pulse.hpp"
#include "util/error.hpp"

namespace oxmlc::mlc {
namespace {

// A shared nominal calibration curve (built once; programming sweeps are
// moderately expensive).
const CalibrationCurve& nominal_curve() {
  static const CalibrationCurve curve =
      build_calibration_curve(QlcConfig::paper_default(), kPaperIrefMin, kPaperIrefMax, 13);
  return curve;
}

// ---------------------------------------------------------------------------
// level allocation
// ---------------------------------------------------------------------------

TEST(Levels, IsoDeltaIHasConstantCurrentStep) {
  const auto alloc = LevelAllocation::iso_delta_i(4, 6e-6, 36e-6);
  ASSERT_EQ(alloc.count(), 16u);
  // Table 2: each IrefR differs from the next by exactly 2 uA.
  for (std::size_t v = 0; v + 1 < alloc.count(); ++v) {
    EXPECT_NEAR(alloc.levels[v].iref - alloc.levels[v + 1].iref, 2e-6, 1e-12);
  }
  EXPECT_NEAR(alloc.levels[0].iref, 36e-6, 1e-12);   // '0000'
  EXPECT_NEAR(alloc.levels[15].iref, 6e-6, 1e-12);   // '1111'
}

TEST(Levels, PatternsMatchTable2Convention) {
  const auto alloc = LevelAllocation::iso_delta_i(4, 6e-6, 36e-6);
  EXPECT_EQ(alloc.pattern(0), "0000");
  EXPECT_EQ(alloc.pattern(15), "1111");
  EXPECT_EQ(alloc.pattern(10), "1010");
  EXPECT_EQ(alloc.pattern(5), "0101");
}

TEST(Levels, BitWidthsScale) {
  for (std::size_t bits : {1u, 2u, 3u, 5u, 6u}) {
    const auto alloc = LevelAllocation::iso_delta_i(bits, 6e-6, 36e-6);
    EXPECT_EQ(alloc.count(), std::size_t{1} << bits);
  }
  EXPECT_THROW(LevelAllocation::iso_delta_i(0, 6e-6, 36e-6), InvalidArgumentError);
  EXPECT_THROW(LevelAllocation::iso_delta_i(4, 36e-6, 6e-6), InvalidArgumentError);
}

TEST(Levels, PaperTable2IsMonotoneAndComplete) {
  const auto& table = paper_table2();
  ASSERT_EQ(table.size(), 16u);
  std::set<std::size_t> values;
  for (std::size_t k = 0; k < table.size(); ++k) {
    values.insert(table[k].value);
    if (k > 0) {
      EXPECT_GT(table[k].iref, table[k - 1].iref);
      EXPECT_LT(table[k].r_hrs, table[k - 1].r_hrs);
    }
  }
  EXPECT_EQ(values.size(), 16u);  // the published typo is resolved
  EXPECT_DOUBLE_EQ(table.front().r_hrs, 267e3);
  EXPECT_DOUBLE_EQ(table.back().r_hrs, 38.17e3);
}

TEST(Levels, PaperTable2ProductIsNearlyConstant) {
  // The physics check behind the allocation: IrefR * RHRS ~ 1.4-1.6 V across
  // the whole table (the termination voltage seen by the cell).
  for (const auto& entry : paper_table2()) {
    const double product = entry.iref * entry.r_hrs;
    EXPECT_GT(product, 1.3);
    EXPECT_LT(product, 1.7);
  }
}

// ---------------------------------------------------------------------------
// calibration curve
// ---------------------------------------------------------------------------

TEST(Calibration, CurveIsMonotoneDecreasing) {
  const auto& curve = nominal_curve();
  const auto& resistances = curve.resistances();
  for (std::size_t k = 1; k < resistances.size(); ++k) {
    EXPECT_LT(resistances[k], resistances[k - 1]);
  }
}

TEST(Calibration, CurveTracksPaperTable2Within35Percent) {
  // Absolute-value sanity: our R(IrefR) lands in the paper's neighbourhood
  // at every tabulated current (shape matters; exact values do not).
  const auto& curve = nominal_curve();
  for (const auto& entry : paper_table2()) {
    const double r = curve.resistance_at(entry.iref);
    EXPECT_GT(r, entry.r_hrs * 0.65) << entry.iref;
    EXPECT_LT(r, entry.r_hrs * 1.35) << entry.iref;
  }
}

TEST(Calibration, InverseRoundTrips) {
  const auto& curve = nominal_curve();
  for (double iref : {7e-6, 15e-6, 30e-6}) {
    const double r = curve.resistance_at(iref);
    EXPECT_NEAR(curve.iref_for_resistance(r), iref, iref * 1e-3);
  }
}

TEST(Calibration, IsoDeltaRUsesCurve) {
  const auto& curve = nominal_curve();
  const double r_min = curve.resistance_at(36e-6);
  const double r_max = curve.resistance_at(6e-6);
  const auto alloc = LevelAllocation::iso_delta_r(3, r_min, r_max, curve);
  ASSERT_EQ(alloc.count(), 8u);
  // Equal resistance steps by construction.
  const double step = alloc.levels[1].r_nominal - alloc.levels[0].r_nominal;
  for (std::size_t v = 1; v + 1 < alloc.count(); ++v) {
    EXPECT_NEAR(alloc.levels[v + 1].r_nominal - alloc.levels[v].r_nominal, step,
                step * 1e-6);
  }
  // Currents must be monotone decreasing with value.
  for (std::size_t v = 0; v + 1 < alloc.count(); ++v) {
    EXPECT_GT(alloc.levels[v].iref, alloc.levels[v + 1].iref);
  }
}

// build_calibration_curve programs the config's own cell in its own stack: a
// config on the PCM preset must give the PCM device's curve, point by point,
// not the OxRAM cell's under the same pulses.
TEST(Calibration, ProgramsTheConfigsOwnCell) {
  QlcConfig pcm;
  pcm.set_op = oxram::pcm_like_set();
  pcm.reset_op = oxram::pcm_like_reset();
  pcm.nominal_cell = oxram::pcm_like_params();
  pcm.stack = oxram::pcm_like_stack();
  const CalibrationCurve curve =
      build_calibration_curve(pcm, oxram::kPcmIrefMin, oxram::kPcmIrefMax, 5);
  ASSERT_EQ(curve.irefs().size(), 5u);
  const auto program = [&](const oxram::OxramParams& cell_params,
                           const oxram::StackConfig& stack, double iref) {
    oxram::FastCell cell = oxram::FastCell::formed_lrs(cell_params, stack);
    cell.apply_set(pcm.set_op);
    oxram::ResetOperation reset = pcm.reset_op;
    reset.iref = iref;
    cell.apply_reset(reset);
    return cell.read().r_cell;
  };
  for (std::size_t k = 0; k < curve.irefs().size(); ++k) {
    const double iref = curve.irefs()[k];
    EXPECT_EQ(curve.resistances()[k],
              program(oxram::pcm_like_params(), oxram::pcm_like_stack(), iref))
        << iref;
    EXPECT_NE(curve.resistances()[k],
              program(oxram::OxramParams{}, oxram::StackConfig{}, iref))
        << iref;
  }
}

// The calibrated operating point, pinned bitwise: every level's nominal
// resistance and the 15 read references, for the three calibrations in use
// (the paper study's 25 points, the examples' 17 and the tests' 13). How the
// point is calibrated or held may change; these doubles may not.
struct OperatingPointPin {
  std::vector<double> r_nominal;   // by level value
  std::vector<double> references;  // ascending
};

void expect_operating_point(const QlcConfig& config, const OperatingPointPin& pin) {
  ASSERT_EQ(config.allocation.count(), pin.r_nominal.size());
  for (std::size_t v = 0; v < pin.r_nominal.size(); ++v) {
    EXPECT_EQ(config.allocation.levels[v].r_nominal, pin.r_nominal[v]) << "level " << v;
  }
  const QlcProgrammer programmer(config);
  const std::vector<double>& refs = programmer.read_references();
  ASSERT_EQ(refs.size(), pin.references.size());
  for (std::size_t k = 0; k < refs.size(); ++k) {
    EXPECT_EQ(refs[k], pin.references[k]) << "reference " << k;
  }
}

TEST(OperatingPointPin, PaperStudy) {
  expect_operating_point(
      paper_mc_study(4, 1).qlc,
      {{35682.913762775817, 38728.946425722948, 42198.280231606746, 46174.726982745524,
        50769.952532855401, 56137.495301627881, 62461.148454307462, 70024.953250199804,
        79199.998038275706, 90534.074701207763, 104874.40156737794, 123480.40658675221,
        148586.95920514755, 184112.70052877584, 237964.71499975538, 328902.09789606096},
       {1.0597468572004635e-06, 1.4109697855013926e-06, 1.7783667978716574e-06,
        2.1622959607172804e-06, 2.5623424901355217e-06, 2.9785922044485906e-06,
        3.4109769834094368e-06, 3.8589604417478155e-06, 4.322697071554379e-06,
        4.8017331308234175e-06, 5.2961226724329364e-06, 5.805718678132733e-06,
        6.3299794204800736e-06, 6.8689812670025247e-06, 7.422194391586702e-06}});
}

TEST(OperatingPointPin, SeventeenPointCalibration) {
  expect_operating_point(
      QlcConfig::paper_default(4, 17),
      {{35682.913762775817, 38729.77951021734, 42197.262399654734, 46172.285529231995,
        50767.03822935927, 56128.851683272973, 62454.708167522826, 70014.237357340535,
        79186.710160915056, 90521.183355023066, 104845.21480196796, 123464.51570510962,
        148564.35773856132, 184095.377375638, 237997.94864927101, 328902.09789606096},
       {1.0596738676238793e-06, 1.4109378269638891e-06, 1.7785813749510895e-06,
        2.1625924774415311e-06, 2.5628490583288869e-06, 2.9791990571705002e-06,
        3.4114863825003955e-06, 3.8595537419728954e-06, 4.3232251648501566e-06,
        4.8023181576432049e-06, 5.2966512449319956e-06, 5.8060188880265349e-06,
        6.330206836266146e-06, 6.8689900192824272e-06, 7.4221206578573578e-06}});
}

TEST(OperatingPointPin, ThirteenPointCalibration) {
  expect_operating_point(
      QlcConfig::paper_default(4, 13),
      {{35682.913762775817, 38725.598480594563, 42190.268959124231, 46165.075619585405,
        50764.080480003562, 56137.495301627881, 62452.656832095694, 70003.744945063401,
        79172.738528655667, 90515.716097603115, 104874.40156737794, 123448.8869747619,
        148493.4209019267, 183963.90468980212, 237832.37222584683, 328902.09789606096},
       {1.0600376654135085e-06, 1.4119176748958842e-06, 1.7796215029595489e-06,
        2.1632312565995458e-06, 2.5626611733398687e-06, 2.9788837885886519e-06,
        3.4118750062513389e-06, 3.8601573483555486e-06, 4.3236023362820438e-06,
        4.8020435043330713e-06, 5.2964107071807939e-06, 5.8066018164269176e-06,
        6.3311565689743145e-06, 6.8698616022536842e-06, 7.4224907300474429e-06}});
}

// ---------------------------------------------------------------------------
// programmer: program + read round trip
// ---------------------------------------------------------------------------

QlcConfig test_config(std::size_t bits = 4) { return QlcConfig::paper_default(bits, 13); }

TEST(Programmer, ReferenceBankSizeAndOrder) {
  const QlcProgrammer programmer(test_config());
  const auto& refs = programmer.read_references();
  // "If 16 resistance states are targeted, 15 current references are
  // necessary" (paper §4.1).
  ASSERT_EQ(refs.size(), 15u);
  for (std::size_t k = 1; k < refs.size(); ++k) EXPECT_GT(refs[k], refs[k - 1]);
}

TEST(Programmer, AllLevelsRoundTripNominally) {
  QlcConfig config = test_config();
  // Nominal conditions: no variability anywhere.
  config.termination.mismatch.enabled = false;
  config.sense = array::SenseAmpModel::ideal();
  config.variability = oxram::OxramVariability::disabled();
  const QlcProgrammer programmer(config);
  Rng rng(1);
  for (std::size_t level = 0; level < 16; ++level) {
    oxram::FastCell cell =
        oxram::FastCell::formed_lrs(oxram::OxramParams{}, oxram::StackConfig{});
    const ProgramOutcome outcome = programmer.program(cell, level, rng);
    EXPECT_TRUE(outcome.terminated) << level;
    EXPECT_EQ(programmer.read_level(cell, rng), level);
  }
}

TEST(Programmer, RoundTripSurvivesVariability) {
  const QlcProgrammer programmer(test_config());
  Rng rng(2024);
  int errors = 0;
  const int per_level = 6;
  for (std::size_t level = 0; level < 16; ++level) {
    for (int trial = 0; trial < per_level; ++trial) {
      const auto device =
          sample_device(oxram::OxramParams{}, oxram::OxramVariability{}, rng);
      oxram::FastCell cell = oxram::FastCell::formed_lrs(device, oxram::StackConfig{});
      programmer.program(cell, level, rng);
      errors += programmer.read_level(cell, rng) != level;
    }
  }
  // Fig. 11: no distribution overlap at 4 bits => decode errors must be rare.
  EXPECT_LE(errors, 1);
}

TEST(Programmer, ResistanceMatchesAllocationNominal) {
  QlcConfig config = test_config();
  config.termination.mismatch.enabled = false;
  config.variability = oxram::OxramVariability::disabled();
  const QlcProgrammer programmer(config);
  Rng rng(7);
  for (std::size_t level : {0ul, 7ul, 15ul}) {
    oxram::FastCell cell =
        oxram::FastCell::formed_lrs(oxram::OxramParams{}, oxram::StackConfig{});
    const auto outcome = programmer.program(cell, level, rng);
    EXPECT_NEAR(outcome.resistance, config.allocation.levels[level].r_nominal,
                config.allocation.levels[level].r_nominal * 0.03);
  }
}

TEST(Programmer, RejectsOutOfRangeLevel) {
  const QlcProgrammer programmer(test_config());
  oxram::FastCell cell =
      oxram::FastCell::formed_lrs(oxram::OxramParams{}, oxram::StackConfig{});
  Rng rng(1);
  EXPECT_THROW(programmer.program(cell, 16, rng), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// margins analysis
// ---------------------------------------------------------------------------

LevelDistribution synthetic_level(std::size_t value, double r_nominal, double spread) {
  LevelDistribution d;
  d.level.value = value;
  d.level.r_nominal = r_nominal;
  Rng rng(100 + value);
  for (int i = 0; i < 200; ++i) {
    d.resistance.push_back(rng.uniform(r_nominal - spread, r_nominal + spread));
    d.energy.push_back(1e-12);
    d.latency.push_back(1e-6);
  }
  return d;
}

TEST(Margins, DisjointDistributionsHavePositiveMargin) {
  std::vector<LevelDistribution> dists;
  dists.push_back(synthetic_level(0, 40e3, 1e3));
  dists.push_back(synthetic_level(1, 50e3, 1e3));
  const MarginReport report = analyze_margins(dists);
  EXPECT_FALSE(report.any_overlap);
  EXPECT_NEAR(report.minimal_nominal_spacing, 10e3, 1.0);
  EXPECT_GT(report.worst_case_margin, 7.5e3);
  EXPECT_LT(report.worst_case_margin, 10e3);
}

TEST(Margins, OverlapIsDetected) {
  std::vector<LevelDistribution> dists;
  dists.push_back(synthetic_level(0, 40e3, 6e3));
  dists.push_back(synthetic_level(1, 45e3, 6e3));
  const MarginReport report = analyze_margins(dists);
  EXPECT_TRUE(report.any_overlap);
  EXPECT_LT(report.worst_case_margin, 0.0);
}

TEST(Margins, ReportsPerPairStatistics) {
  std::vector<LevelDistribution> dists;
  for (std::size_t v = 0; v < 4; ++v) {
    dists.push_back(synthetic_level(v, 40e3 + 20e3 * static_cast<double>(v), 2e3));
  }
  const MarginReport report = analyze_margins(dists);
  ASSERT_EQ(report.margins.size(), 3u);
  for (const auto& m : report.margins) {
    EXPECT_LT(m.worst_case_margin, m.nominal_spacing);  // the sampled spread shows
    EXPECT_NEAR(m.nominal_spacing, 20e3, 1.0);
  }
}

TEST(Margins, DegenerateLevelCountsYieldEmptyReports) {
  // Fewer than two levels means no adjacent pair exists: a total function
  // returning an empty report keeps retention sweeps over reduced
  // allocations alive where a throw would abort the whole study.
  const MarginReport empty = analyze_margins({});
  EXPECT_TRUE(empty.margins.empty());
  EXPECT_FALSE(empty.any_overlap);
  EXPECT_TRUE(std::isnan(empty.minimal_nominal_spacing));
  EXPECT_TRUE(std::isnan(empty.worst_case_margin));

  const MarginReport single = analyze_margins({synthetic_level(0, 40e3, 1e3)});
  EXPECT_TRUE(single.margins.empty());
  EXPECT_FALSE(single.any_overlap);
  EXPECT_TRUE(std::isnan(single.worst_case_margin));
}

TEST(Margins, FullyOverlappingDistributionsReportNegativeMargin) {
  // Identical adjacent populations: the worst case margin must go negative
  // and every decoded sample of the upper level is at risk.
  std::vector<LevelDistribution> dists;
  dists.push_back(synthetic_level(0, 45e3, 5e3));
  dists.push_back(synthetic_level(1, 45e3, 5e3));
  dists[1].level.r_nominal = 45e3;
  const MarginReport report = analyze_margins(dists);
  EXPECT_TRUE(report.any_overlap);
  EXPECT_LT(report.worst_case_margin, 0.0);
  EXPECT_NEAR(report.minimal_nominal_spacing, 0.0, 1e-9);
}

TEST(Margins, MidpointThresholdsAreGeometricMeans) {
  LevelAllocation allocation;
  allocation.bits = 2;
  allocation.levels.resize(4);
  for (std::size_t v = 0; v < 4; ++v) {
    allocation.levels[v].value = v;
    allocation.levels[v].r_nominal = 40e3 * std::pow(2.0, static_cast<double>(v));
  }
  const std::vector<double> thresholds = midpoint_thresholds(allocation);
  ASSERT_EQ(thresholds.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_NEAR(thresholds[k],
                std::sqrt(allocation.levels[k].r_nominal * allocation.levels[k + 1].r_nominal),
                1e-6);
  }
  // Degenerate allocations have no thresholds rather than throwing.
  LevelAllocation one;
  one.levels.resize(1);
  one.levels[0].r_nominal = 40e3;
  EXPECT_TRUE(midpoint_thresholds(one).empty());
  EXPECT_TRUE(midpoint_thresholds(LevelAllocation{}).empty());
}

TEST(Margins, DecodeBerCountsThresholdCrossings) {
  std::vector<LevelDistribution> dists;
  dists.push_back(synthetic_level(0, 40e3, 1e3));
  dists.push_back(synthetic_level(1, 80e3, 1e3));
  const std::vector<double> thresholds = {56.6e3};
  const BerReport clean = decode_ber(dists, thresholds);
  EXPECT_EQ(clean.samples, 400u);
  EXPECT_EQ(clean.errors, 0u);
  EXPECT_DOUBLE_EQ(clean.ber, 0.0);

  // Shift the threshold into the middle of level 1: its lower half decodes
  // as level 0 while level 0 stays clean.
  const std::vector<double> biased = {80e3};
  const BerReport half = decode_ber(dists, biased);
  EXPECT_GT(half.errors, 0u);
  EXPECT_DOUBLE_EQ(half.per_level_error[0], 0.0);
  EXPECT_GT(half.per_level_error[1], 0.3);
  EXPECT_LT(half.per_level_error[1], 0.7);

  EXPECT_THROW(decode_ber(dists, std::vector<double>{2.0, 1.0}), InvalidArgumentError);

  const BerReport none = decode_ber({}, thresholds);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_DOUBLE_EQ(none.ber, 0.0);
}

TEST(Margins, ZeroWidthIrefBandIsAnEmptyBandNotACrash) {
  // Two levels calibrated to the same nominal resistance (a zero-width IrefR
  // band) produce duplicated thresholds; every sample of the squeezed middle
  // level then decodes elsewhere, which is the honest answer.
  std::vector<LevelDistribution> dists;
  dists.push_back(synthetic_level(0, 40e3, 0.5e3));
  dists.push_back(synthetic_level(1, 50e3, 0.1e3));
  dists.push_back(synthetic_level(2, 60e3, 0.5e3));
  const std::vector<double> degenerate = {50e3, 50e3};
  const BerReport report = decode_ber(dists, degenerate);
  EXPECT_DOUBLE_EQ(report.per_level_error[1], 1.0);  // band 1 is empty
  EXPECT_DOUBLE_EQ(report.per_level_error[0], 0.0);
  EXPECT_DOUBLE_EQ(report.per_level_error[2], 0.0);

  LevelAllocation allocation;
  allocation.levels.resize(2);
  allocation.levels[0].r_nominal = 50e3;
  allocation.levels[1].r_nominal = 50e3;
  const std::vector<double> thresholds = midpoint_thresholds(allocation);
  ASSERT_EQ(thresholds.size(), 1u);
  EXPECT_DOUBLE_EQ(thresholds[0], 50e3);
}

// ---------------------------------------------------------------------------
// baselines
// ---------------------------------------------------------------------------

TEST(Baselines, VrstAmplitudesIncreaseWithLevel) {
  const VrstPulseBaseline baseline(test_config(2));  // 4 levels: keep calibration cheap
  const auto& amps = baseline.amplitudes();
  ASSERT_EQ(amps.size(), 4u);
  for (std::size_t k = 1; k < amps.size(); ++k) EXPECT_GT(amps[k], amps[k - 1]);
}

TEST(Baselines, VrstSpreadExceedsTerminationSpread) {
  // The reason the paper's scheme wins: open-loop VRST programming passes the
  // full C2C/D2D dynamics variation into the resistance; termination does not.
  const QlcConfig config = test_config(2);
  const VrstPulseBaseline baseline(config);
  const QlcProgrammer programmer(config);
  Rng rng(5);
  RunningStats vrst_log_r, term_log_r;
  const std::size_t level = 2;
  for (int trial = 0; trial < 25; ++trial) {
    const auto device = sample_device(oxram::OxramParams{}, oxram::OxramVariability{}, rng);
    oxram::FastCell cell_a = oxram::FastCell::formed_lrs(device, oxram::StackConfig{});
    vrst_log_r.add(std::log(baseline.program(cell_a, level, rng).resistance));
    oxram::FastCell cell_b = oxram::FastCell::formed_lrs(device, oxram::StackConfig{});
    term_log_r.add(std::log(programmer.program(cell_b, level, rng).resistance));
  }
  EXPECT_GT(vrst_log_r.stddev(), 2.0 * term_log_r.stddev());
}

TEST(Baselines, ProgramAndVerifyLandsInBandAtACost) {
  const QlcConfig config = test_config(2);
  const ProgramAndVerifyBaseline baseline(config);
  Rng rng(17);
  const std::size_t level = 2;
  const double target = config.allocation.levels[level].r_nominal;
  const auto device = sample_device(oxram::OxramParams{}, oxram::OxramVariability{}, rng);
  oxram::FastCell cell = oxram::FastCell::formed_lrs(device, oxram::StackConfig{});
  const auto outcome = baseline.program(cell, level, rng);
  ASSERT_TRUE(outcome.terminated);  // converged into the band
  EXPECT_NEAR(outcome.resistance, target, target * kVerifyBandTolerance * 1.2);
  EXPECT_GT(outcome.pulses, 1u);  // needed multiple program slices
}

TEST(Baselines, IcSetProducesDistinctLrsLevels) {
  const IcSetBaseline baseline(4, QlcConfig{});
  const auto& wl = baseline.wl_voltages();
  ASSERT_EQ(wl.size(), 4u);
  // Deeper levels = lower compliance = lower WL voltage.
  for (std::size_t k = 1; k < wl.size(); ++k) EXPECT_LT(wl[k], wl[k - 1]);
  Rng rng(23);
  double prev_r = 0.0;
  for (std::size_t level = 0; level < 4; ++level) {
    oxram::FastCell cell =
        oxram::FastCell::formed_lrs(oxram::OxramParams{}, oxram::StackConfig{});
    const auto outcome = baseline.program(cell, level, rng);
    EXPECT_GT(outcome.resistance, prev_r);
    prev_r = outcome.resistance;
  }
}

// ---------------------------------------------------------------------------
// mc study plumbing
// ---------------------------------------------------------------------------

TEST(McStudy, SingleLevelIsDeterministic) {
  auto config = paper_mc_study(4, 8);
  const auto a = run_level_study(config)[3];
  const auto b = run_level_study(config)[3];
  ASSERT_EQ(a.resistance.size(), 8u);
  for (std::size_t i = 0; i < a.resistance.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.resistance[i], b.resistance[i]);
  }
}

TEST(McStudy, LevelsAreOrderedAndPopulated) {
  auto config = paper_mc_study(2, 5);
  const auto dists = run_level_study(config);
  ASSERT_EQ(dists.size(), 4u);
  for (std::size_t v = 0; v + 1 < dists.size(); ++v) {
    EXPECT_LT(dists[v].level.r_nominal, dists[v + 1].level.r_nominal);
    EXPECT_EQ(dists[v].resistance.size(), 5u);
    EXPECT_EQ(dists[v].energy.size(), 5u);
    EXPECT_EQ(dists[v].latency.size(), 5u);
  }
}

// ---------------------------------------------------------------------------
// batched word programming
// ---------------------------------------------------------------------------

namespace {
double rel_diff(double a, double b) {
  return std::fabs(a - b) / std::max({std::fabs(a), std::fabs(b), 1e-300});
}
}  // namespace

// The word flow of program_word, one cell at a time on the reference stepper
// (oxram/reference_pulse.hpp), drawing from `rng` in the same order: SET rate
// factor, effective IrefR, RST rate factor.
ProgramOutcome reference_program(const QlcConfig& config, oxram::FastCell& cell,
                                 std::size_t level, Rng& rng) {
  ProgramOutcome outcome;
  outcome.level = level;
  cell.set_rate_factor(sample_cycle_rate_factor(config.variability, rng));
  outcome.set_energy = oxram::reference_pulse(cell, config.set_op).energy_source;
  outcome.effective_iref =
      config.termination.sample_effective_iref(config.allocation.levels[level].iref, rng);
  oxram::ResetOperation reset = config.reset_op;
  reset.iref = outcome.effective_iref;
  cell.set_rate_factor(sample_cycle_rate_factor(config.variability, rng));
  const oxram::OperationResult result = oxram::reference_pulse(cell, reset);
  outcome.terminated = result.terminated;
  outcome.latency = result.t_terminate;
  outcome.energy = result.energy_source;
  outcome.resistance = cell.read().r_cell;
  return outcome;
}

// program_word must consume each cell's rng stream in the reference flow's
// order (identical sampled conditions) and land each cell on the state the
// reference stepper reaches, to stack-solver tolerance.
TEST(Programmer, ProgramWordMatchesScalarProgram) {
  const QlcProgrammer programmer(test_config());
  const std::size_t n = 16;

  std::vector<oxram::FastCell> scalar_cells, word_cells;
  std::vector<Rng> scalar_rngs, word_rngs;
  std::vector<std::size_t> levels(n);
  Rng seeder(0xBA7C11);
  for (std::size_t k = 0; k < n; ++k) {
    levels[k] = k;
    Rng device_rng = seeder.split();
    const auto device =
        sample_device(oxram::OxramParams{}, oxram::OxramVariability{}, device_rng);
    scalar_cells.push_back(oxram::FastCell::formed_lrs(device, oxram::StackConfig{}));
    word_cells.push_back(oxram::FastCell::formed_lrs(device, oxram::StackConfig{}));
    const Rng stream = seeder.split();  // copied: identical streams per path
    scalar_rngs.push_back(stream);
    word_rngs.push_back(stream);
  }

  std::vector<ProgramOutcome> scalar;
  for (std::size_t k = 0; k < n; ++k) {
    scalar.push_back(reference_program(programmer.config(), scalar_cells[k], levels[k],
                                       scalar_rngs[k]));
  }

  std::vector<oxram::FastCell*> cell_ptrs(n);
  std::vector<Rng*> rng_ptrs(n);
  for (std::size_t k = 0; k < n; ++k) {
    cell_ptrs[k] = &word_cells[k];
    rng_ptrs[k] = &word_rngs[k];
  }
  const std::vector<ProgramOutcome> word =
      programmer.program_word(cell_ptrs, levels, rng_ptrs);

  ASSERT_EQ(word.size(), n);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_EQ(word[k].level, scalar[k].level);
    EXPECT_EQ(word[k].terminated, scalar[k].terminated) << k;
    // The mismatch draw must be bit-identical — same stream, same order.
    EXPECT_DOUBLE_EQ(word[k].effective_iref, scalar[k].effective_iref) << k;
    EXPECT_LT(rel_diff(word[k].resistance, scalar[k].resistance), 1e-9) << k;
    EXPECT_LT(rel_diff(word[k].latency, scalar[k].latency), 1e-9) << k;
    EXPECT_LT(rel_diff(word[k].energy, scalar[k].energy), 1e-8) << k;
    EXPECT_LT(rel_diff(word[k].set_energy, scalar[k].set_energy), 1e-8) << k;
    EXPECT_LT(rel_diff(word_cells[k].gap(), scalar_cells[k].gap()), 1e-9) << k;
  }

  const std::vector<std::size_t> short_levels(n - 1, 0);
  EXPECT_THROW(programmer.program_word(cell_ptrs, short_levels, rng_ptrs),
               InvalidArgumentError);
}

}  // namespace
}  // namespace oxmlc::mlc

// Pins of the three transistor-level write testbenches (WritePath, WordPath,
// BankWritePath) at the configurations the benches and the memsys MNA tier
// run. Accepted steps and Newton iterations are exact; fire times, final gaps
// and source energies hold to 1e-12 relative. The testbenches share their
// SL driver, 1T-1R column and comparator stop event; a change to how any of
// them builds its circuit must leave every number here alone. The Newton
// tests at the end check, on the same testbenches, the solver policy those
// exact counts rest on: residual-only line-search trials and one Jacobian per
// factorization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "array/bank_write_path.hpp"
#include "array/word_path.hpp"
#include "array/write_path.hpp"
#include "numeric/sparse_matrix.hpp"
#include "obs/registry.hpp"
#include "spice/dc.hpp"
#include "spice/mna.hpp"
#include "util/rng.hpp"

namespace oxmlc::array {
namespace {

struct ColumnPin {
  bool terminated;
  double t_terminate;
  double final_gap;
};

void expect_rel(double got, double want, const char* what) {
  EXPECT_NEAR(got, want, 1e-12 * std::fabs(want)) << what;
}

template <class Column>
void expect_column(const Column& got, const ColumnPin& want) {
  EXPECT_EQ(got.terminated, want.terminated);
  expect_rel(got.t_terminate, want.t_terminate, "t_terminate");
  expect_rel(got.final_gap, want.final_gap, "final_gap");
}

template <class Column>
void expect_columns(const std::vector<Column>& got, const std::vector<ColumnPin>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < want.size(); ++j) {
    SCOPED_TRACE("column " + std::to_string(j));
    expect_column(got[j], want[j]);
  }
}

TEST(WriteStackPin, WritePathFig10Terminated) {
  WritePathConfig config;
  config.iref = 10e-6;
  config.pulse_width = 8e-6;
  config.t_stop = 5e-6;
  const WritePathResult result = WritePath(config).run();
  EXPECT_EQ(result.transient.steps_accepted, 269u);
  EXPECT_EQ(result.transient.newton_iterations, 1026u);
  expect_column(result, {true, 2.6043528442382763e-06, 9.2255522507344598e-10});
  expect_rel(result.energy_source, 9.9981890300785494e-11, "energy_source");
}

TEST(WriteStackPin, WritePathFig10StandardPulse) {
  WritePathConfig config;
  config.pulse_width = 3.5e-6;
  config.t_stop = 3.7e-6;
  const WritePathResult result = WritePath(config).run();
  EXPECT_EQ(result.transient.steps_accepted, 214u);
  EXPECT_EQ(result.transient.newton_iterations, 506u);
  expect_column(result, {false, 0.0, 2.0120180095188868e-09});
  expect_rel(result.energy_source, 3.3768010947648468e-11, "energy_source");
}

TEST(WriteStackPin, WordPathWordParallelBench) {
  WordPathConfig config;
  config.irefs = {34e-6, 24e-6, 14e-6, 8e-6};
  const WordPathResult result = WordPath(config).run();
  EXPECT_EQ(result.transient.steps_accepted, 457u);
  EXPECT_EQ(result.transient.newton_iterations, 2329u);
  expect_columns(result.bits,
                 {{true, 6.2060284423828146e-07, 5.0772628852543845e-10},
                  {true, 1.1398411254882818e-06, 6.4167012400234331e-10},
                  {true, 2.0840794067382812e-06, 8.2313631274937063e-10},
                  {true, 3.3233176879882705e-06, 9.9234437572065304e-10}});
  expect_rel(result.word_latency, 3.3233176879882705e-06, "word_latency");
}

// The memsys MNA tier's bank: 1024 rows, 4 BL segments, a 4.5 us pulse cut
// 50 ns after the last of eight comparators (IrefR 36, 32, ..., 8 uA) fires.
BankWritePathConfig mna_tier_bank(bool hierarchical) {
  BankWritePathConfig config;
  config.columns = 8;
  config.rows = 1024;
  config.bl_segments = 4;
  for (std::size_t j = 0; j < config.columns; ++j) {
    config.irefs.push_back(static_cast<double>(36 - 4 * j) * 1e-6);
  }
  config.pulse_width = 4.5e-6;
  config.t_stop = 4.8e-6;
  config.stop_after_terminated = 50e-9;
  config.hierarchical = hierarchical;
  return config;
}

TEST(WriteStackPin, BankWritePathMnaTierHierarchical) {
  const BankWritePathResult result = BankWritePath(mna_tier_bank(true)).run();
  EXPECT_EQ(result.transient.steps_accepted, 248u);
  EXPECT_EQ(result.transient.newton_iterations, 3084u);
  EXPECT_EQ(result.unknowns, 127u);
  EXPECT_EQ(result.blocks, 8u);
  EXPECT_EQ(result.border_size, 23u);
  expect_columns(result.columns,
                 {{true, 5.493528442382813e-07, 4.6455694171987125e-10},
                  {true, 7.2984112548828133e-07, 5.1471041923649687e-10},
                  {true, 9.4282940673828148e-07, 5.6907535861230761e-10},
                  {true, 1.1958176879882816e-06, 6.2791872032940888e-10},
                  {true, 1.5100559692382816e-06, 6.9370743992457937e-10},
                  {true, 1.9230442504882822e-06, 7.7006177544903497e-10},
                  {true, 2.5047825317382773e-06, 8.6240145862802855e-10},
                  {true, 3.4577708129882691e-06, 9.8338896959252712e-10}});
  expect_rel(result.energy_source, 6.243736402401245e-10, "energy_source");
}

TEST(WriteStackPin, BankWritePathMnaTierMonolithic) {
  const BankWritePathResult result = BankWritePath(mna_tier_bank(false)).run();
  EXPECT_EQ(result.transient.steps_accepted, 252u);
  EXPECT_EQ(result.transient.newton_iterations, 3956u);
  expect_columns(result.columns,
                 {{true, 5.493528442382813e-07, 4.6512478406908448e-10},
                  {true, 7.2988018798828089e-07, 5.1476670701081597e-10},
                  {true, 9.4286846923828104e-07, 5.6912637163176972e-10},
                  {true, 1.1958567504882811e-06, 6.2796453677269232e-10},
                  {true, 1.5100950317382811e-06, 6.9374803751557013e-10},
                  {true, 1.9230833129882819e-06, 7.7009700404082024e-10},
                  {true, 2.5048215942382771e-06, 8.6243108879315546e-10},
                  {true, 3.4578098754882688e-06, 9.8341217510249067e-10}});
  expect_rel(result.energy_source, 6.2432028223031093e-10, "energy_source");
}

// Line-search trials assemble with a null Jacobian, and Newton reads their
// residual as the one the full assembly at that iterate would give. On the MNA
// tier's bank the two must match bit for bit at the DC point and at two
// perturbed iterates, in DC and in transient context.
TEST(Newton, ResidualOnlyAssembleMatchesFullAssemble) {
  BankWritePath bank(mna_tier_bank(true));
  spice::MnaSystem system(bank.circuit());
  const spice::DcResult dc = spice::solve_dc(system);
  ASSERT_TRUE(dc.converged);
  const std::size_t n = system.dimension();

  std::vector<std::vector<double>> iterates = {dc.solution};
  Rng rng(28);
  for (int k = 0; k < 2; ++k) {
    std::vector<double> x = dc.solution;
    for (double& v : x) v += 0.05 * rng.normal(0.0, 1.0);
    iterates.push_back(std::move(x));
  }

  spice::StampContext& ctx = system.context();
  for (const spice::AnalysisMode mode :
       {spice::AnalysisMode::kDcOperatingPoint, spice::AnalysisMode::kTransient}) {
    const bool transient = mode == spice::AnalysisMode::kTransient;
    ctx.mode = mode;
    ctx.time = transient ? 1e-6 : 0.0;
    ctx.dt = transient ? 1e-9 : 0.0;
    for (std::size_t k = 0; k < iterates.size(); ++k) {
      SCOPED_TRACE("transient " + std::to_string(transient) + ", iterate " +
                   std::to_string(k));
      num::TripletMatrix jacobian(n);
      std::vector<double> full(n), residual_only(n);
      system.assemble(iterates[k], &jacobian, full);
      system.assemble(iterates[k], nullptr, residual_only);
      EXPECT_FALSE(jacobian.entries().empty());
      EXPECT_EQ(std::memcmp(full.data(), residual_only.data(), n * sizeof(double)), 0);
    }
  }
}

// Newton stamps one Jacobian per factorization and evaluates one residual per
// line-search trial, the first trial of each iteration plus one per halving.
TEST(Newton, CountsOneJacobianPerFactorization) {
  obs::Registry& registry = obs::registry();
  const obs::Counter& assemblies = registry.counter("newton.assemblies");
  const obs::Counter& factorizations = registry.counter("newton.factorizations");
  const obs::Counter& residuals = registry.counter("newton.residual_evaluations");
  const obs::Counter& halvings = registry.counter("newton.damping_halvings");
  const std::uint64_t assemblies_before = assemblies.value();
  const std::uint64_t factorizations_before = factorizations.value();
  const std::uint64_t residuals_before = residuals.value();
  const std::uint64_t halvings_before = halvings.value();

  WritePathConfig config;
  config.iref = 10e-6;
  config.pulse_width = 8e-6;
  config.t_stop = 5e-6;
  ASSERT_TRUE(WritePath(config).run().terminated);

  const std::uint64_t factored = factorizations.value() - factorizations_before;
  const std::uint64_t halved = halvings.value() - halvings_before;
  EXPECT_GT(factored, 0u);
  EXPECT_GT(halved, 0u);
  EXPECT_EQ(assemblies.value() - assemblies_before, factored);
  EXPECT_EQ(residuals.value() - residuals_before, factored + halved);
}

}  // namespace
}  // namespace oxmlc::array

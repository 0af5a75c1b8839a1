// Hierarchical Schur-complement MNA: BlockSchurLu against the monolithic
// LinearSolver, partition derivation, the bank write path, and the memsys
// full-MNA tier riding on top.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "array/bank_write_path.hpp"
#include "mlc/levels.hpp"
#include "numeric/linear_error.hpp"
#include "numeric/schur_lu.hpp"
#include "numeric/sparse_lu.hpp"
#include "numeric/sparse_matrix.hpp"
#include "spice/analyze/analyzer.hpp"
#include "spice/dc.hpp"
#include "spice/mna.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using oxmlc::num::BlockPartition;
using oxmlc::num::BlockSchurLu;
using oxmlc::num::LinearSolver;
using oxmlc::num::SingularMatrixError;
using oxmlc::num::TripletMatrix;

// Builds a well-conditioned bordered-block-diagonal system: `blocks` interior
// blocks of `block_n` unknowns each (tridiagonal, diagonally dominant) plus a
// `border_n`-unknown border every block couples to through a few entries.
struct BbdSystem {
  TripletMatrix a;
  BlockPartition partition;
  std::vector<double> rhs;
};

BbdSystem make_bbd(std::size_t blocks, std::size_t block_n, std::size_t border_n,
                   std::uint64_t seed) {
  BbdSystem sys;
  const std::size_t n = blocks * block_n + border_n;
  sys.a.resize(n);
  sys.partition.blocks = blocks;
  sys.partition.block_of.assign(n, BlockPartition::kBorder);
  oxmlc::Rng rng(seed);

  auto global = [&](std::size_t k, std::size_t i) { return k * block_n + i; };
  const std::size_t border_base = blocks * block_n;

  for (std::size_t k = 0; k < blocks; ++k) {
    for (std::size_t i = 0; i < block_n; ++i) {
      sys.partition.block_of[global(k, i)] = static_cast<std::int32_t>(k);
      sys.a.add(global(k, i), global(k, i), 4.0 + rng.uniform());
      if (i + 1 < block_n) {
        const double c = 0.5 + rng.uniform();
        sys.a.add(global(k, i), global(k, i + 1), -c);
        sys.a.add(global(k, i + 1), global(k, i), -c);
      }
    }
    // Each block touches two border unknowns (like SL/WL taps).
    for (std::size_t t = 0; t < 2 && t < border_n; ++t) {
      const std::size_t b = border_base + (k + t) % border_n;
      const double c = 0.25 + rng.uniform();
      sys.a.add(global(k, t % block_n), b, -c);
      sys.a.add(b, global(k, t % block_n), -c);
    }
  }
  for (std::size_t j = 0; j < border_n; ++j) {
    sys.a.add(border_base + j, border_base + j, 6.0 + rng.uniform());
    if (j + 1 < border_n) {
      const double c = 0.5 + rng.uniform();
      sys.a.add(border_base + j, border_base + j + 1, -c);
      sys.a.add(border_base + j + 1, border_base + j, -c);
    }
  }
  sys.rhs.resize(n);
  for (std::size_t i = 0; i < n; ++i) sys.rhs[i] = rng.uniform(-1.0, 1.0);
  return sys;
}

double rel_max_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double diff = 0.0, scale = 1e-30;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, std::fabs(a[i] - b[i]));
    scale = std::max(scale, std::fabs(a[i]));
  }
  return diff / scale;
}

TEST(BlockSchurLu, MatchesMonolithicSolve) {
  // Block size above and below the dense cutoff, border present.
  for (std::size_t block_n : {8u, 120u}) {
    BbdSystem sys = make_bbd(6, block_n, 10, 0xBEEF + block_n);
    const std::size_t n = sys.a.size();

    LinearSolver mono;
    mono.factorize_cached(sys.a);
    std::vector<double> x_mono(n);
    mono.solve(sys.rhs, x_mono);

    BlockSchurLu hier(sys.partition);
    hier.factorize_cached(sys.a);
    std::vector<double> x_hier(n);
    hier.solve(sys.rhs, x_hier);

    EXPECT_LT(rel_max_diff(x_mono, x_hier), 1e-9) << "block_n=" << block_n;
  }
}

TEST(BlockSchurLu, RefactorizePathMatchesAndReports) {
  // Same pattern, new values: second factorize must take the block
  // refactorize path (block_n > dense cutoff) and still match monolithic.
  BbdSystem sys = make_bbd(4, 120, 8, 0xAB);
  BlockSchurLu hier(sys.partition);
  hier.factorize_cached(sys.a);
  EXPECT_FALSE(hier.last_refactorized());

  BbdSystem sys2 = make_bbd(4, 120, 8, 0xCD);  // same structure, new values
  hier.factorize_cached(sys2.a);
  EXPECT_TRUE(hier.last_refactorized());

  LinearSolver mono;
  mono.factorize_cached(sys2.a);
  const std::size_t n = sys2.a.size();
  std::vector<double> x_mono(n), x_hier(n);
  mono.solve(sys2.rhs, x_mono);
  hier.solve(sys2.rhs, x_hier);
  EXPECT_LT(rel_max_diff(x_mono, x_hier), 1e-9);
}

TEST(BlockSchurLu, DegenerateSingleBlockEmptyBorder) {
  // Everything in one interior block: no border, pure block solve.
  BbdSystem sys = make_bbd(1, 24, 0, 0x11);
  BlockSchurLu hier(sys.partition);
  hier.factorize_cached(sys.a);
  EXPECT_EQ(hier.border_size(), 0u);

  LinearSolver mono;
  mono.factorize_cached(sys.a);
  std::vector<double> x_mono(sys.a.size()), x_hier(sys.a.size());
  mono.solve(sys.rhs, x_mono);
  hier.solve(sys.rhs, x_hier);
  EXPECT_LT(rel_max_diff(x_mono, x_hier), 1e-12);
}

TEST(BlockSchurLu, DegenerateAllBorder) {
  // Every unknown on the border: reduces to a dense monolithic solve.
  BbdSystem sys = make_bbd(2, 6, 4, 0x22);
  BlockPartition all_border;
  all_border.blocks = 1;  // one (empty) interior block
  all_border.block_of.assign(sys.a.size(), BlockPartition::kBorder);
  BlockSchurLu hier(all_border);
  hier.factorize_cached(sys.a);
  EXPECT_EQ(hier.border_size(), sys.a.size());

  LinearSolver mono;
  mono.factorize_cached(sys.a);
  std::vector<double> x_mono(sys.a.size()), x_hier(sys.a.size());
  mono.solve(sys.rhs, x_mono);
  hier.solve(sys.rhs, x_hier);
  EXPECT_LT(rel_max_diff(x_mono, x_hier), 1e-12);
}

TEST(BlockSchurLu, SingularBlockNamesGlobalColumn) {
  BbdSystem sys = make_bbd(3, 10, 4, 0x33);
  // Zero out block 1's local row/column 5 (global 15) by rebuilding without
  // any entry touching it.
  TripletMatrix broken(sys.a.size());
  const std::size_t dead = 15;
  for (const auto& t : sys.a.entries()) {
    if (t.row == dead || t.col == dead) continue;
    broken.add(t.row, t.col, t.value);
  }
  BlockSchurLu hier(sys.partition);
  try {
    hier.factorize_cached(broken);
    FAIL() << "expected SingularMatrixError";
  } catch (const SingularMatrixError& e) {
    EXPECT_EQ(e.column(), dead);
    EXPECT_NE(std::string(e.what()).find("block 1"), std::string::npos)
        << e.what();
  }
}

TEST(BlockSchurLu, CrossBlockCouplingRejected) {
  BbdSystem sys = make_bbd(2, 8, 2, 0x44);
  sys.a.add(0, 8, 1.0);  // block 0 directly into block 1
  BlockSchurLu hier(sys.partition);
  EXPECT_THROW(hier.factorize_cached(sys.a), oxmlc::InvalidArgumentError);
}

oxmlc::array::BankWritePathConfig bank_config(std::size_t columns,
                                              std::size_t rows) {
  oxmlc::array::BankWritePathConfig cfg;
  cfg.columns = columns;
  cfg.rows = rows;
  cfg.irefs.assign(columns, 20e-6);
  cfg.pulse_width = 3.5e-6;
  cfg.t_stop = 3.0e-6;
  return cfg;
}

TEST(BankPartition, DerivedShapeMatchesColumns) {
  oxmlc::array::BankWritePath bank(bank_config(8, 8));
  const auto& p = bank.partition();
  // One interior block per column; SL/WL taps, drivers, vdd and the shared
  // source branch currents on the border.
  EXPECT_EQ(p.blocks, 8u);
  std::size_t border = 0;
  std::vector<std::size_t> sizes(p.blocks, 0);
  for (std::int32_t b : p.block_of) {
    if (b == BlockPartition::kBorder) {
      ++border;
    } else {
      ++sizes[static_cast<std::size_t>(b)];
    }
  }
  EXPECT_GE(border, 2 * 8 + 3u);  // taps + drivers + vdd + source branches
  EXPECT_LE(border, 2 * 8 + 12u);
  for (std::size_t s : sizes) EXPECT_GE(s, 8u);  // real column stacks
}

TEST(BankPartition, BankWithoutComparatorHasNoSupply) {
  // No column has a reference current, so no column gets a comparator, and
  // the comparator supply would be a source on a node nothing else touches.
  oxmlc::array::BankWritePathConfig cfg = bank_config(1, 8);
  cfg.irefs.clear();
  oxmlc::array::BankWritePath bank(cfg);
  const auto report = oxmlc::spice::analyze::analyze_circuit(bank.circuit());
  EXPECT_FALSE(report.has_code(oxmlc::spice::analyze::codes::kDanglingTerminal))
      << report.format();
}

TEST(BankEquivalence, DcHierMatchesMonolithicAt1e9) {
  oxmlc::array::BankWritePath bank(bank_config(8, 8));

  oxmlc::spice::MnaSystem mono(bank.circuit());
  const auto dc_mono = oxmlc::spice::solve_dc(mono);
  ASSERT_TRUE(dc_mono.converged);

  oxmlc::spice::MnaSystem hier(bank.circuit());
  hier.set_partition(bank.partition());
  const auto dc_hier = oxmlc::spice::solve_dc(hier);
  ASSERT_TRUE(dc_hier.converged);

  EXPECT_LT(rel_max_diff(dc_mono.solution, dc_hier.solution), 1e-9);
}

TEST(BankEquivalence, ShortTransientHierMatchesMonolithicAt1e9) {
  // Pre-termination window: both paths must take the same accepted steps and
  // agree on every probe to 1e-9.
  auto cfg = bank_config(8, 8);
  cfg.t_stop = 0.3e-6;

  cfg.hierarchical = false;
  oxmlc::array::BankWritePath mono(cfg);
  const auto r_mono = mono.run();

  cfg.hierarchical = true;
  oxmlc::array::BankWritePath hier(cfg);
  const auto r_hier = hier.run();

  ASSERT_TRUE(r_mono.transient.completed);
  ASSERT_TRUE(r_hier.transient.completed);
  ASSERT_EQ(r_mono.transient.times.size(), r_hier.transient.times.size());
  for (std::size_t p = 0; p < r_mono.transient.probe_values.size(); ++p) {
    EXPECT_LT(rel_max_diff(r_mono.transient.probe_values[p],
                           r_hier.transient.probe_values[p]),
              1e-9)
        << "probe " << p;
  }
}

TEST(BankEquivalence, MidPulseTerminationMatchesMonolithic) {
  // Full terminated RESET: every column's comparator fires mid-pulse and the
  // two solver paths agree on when and on the programmed state.
  auto cfg = bank_config(8, 8);

  cfg.hierarchical = false;
  oxmlc::array::BankWritePath mono(cfg);
  const auto r_mono = mono.run();

  cfg.hierarchical = true;
  oxmlc::array::BankWritePath hier(cfg);
  const auto r_hier = hier.run();

  for (std::size_t j = 0; j < cfg.columns; ++j) {
    ASSERT_TRUE(r_hier.columns[j].terminated) << "column " << j;
    ASSERT_TRUE(r_mono.columns[j].terminated) << "column " << j;
    // Mid-pulse: the comparator, not the pulse edge, ended the write.
    EXPECT_LT(r_hier.columns[j].t_terminate, cfg.pulse_width);
    EXPECT_GT(r_hier.columns[j].t_terminate, 10e-9);
    // Event localization resolution bounds the fire-time difference.
    EXPECT_NEAR(r_hier.columns[j].t_terminate, r_mono.columns[j].t_terminate,
                5e-9);
    EXPECT_NEAR(r_hier.columns[j].final_gap, r_mono.columns[j].final_gap,
                1e-6 * std::fabs(r_mono.columns[j].final_gap));
    // RESET actually happened: gap opened beyond the LRS start.
    EXPECT_GT(r_hier.columns[j].final_gap, 0.3e-9);
  }
}

TEST(BankEquivalence, EarlyStopPreservesTerminationAndTruncatesTail) {
  // stop_after_terminated ends the run shortly after the LAST comparator
  // fires; everything observable up to that point (fire times, programmed
  // gaps, fired-event count) must match the full-horizon run, and only the
  // dead tail may be missing. The memsys MNA tier relies on this.
  auto cfg = bank_config(8, 8);

  oxmlc::array::BankWritePath full(cfg);
  const auto r_full = full.run();

  cfg.stop_after_terminated = 50e-9;
  oxmlc::array::BankWritePath early(cfg);
  const auto r_early = early.run();

  ASSERT_TRUE(r_early.transient.completed);
  EXPECT_LT(r_early.transient.times.back(), r_full.transient.times.back());
  ASSERT_EQ(r_early.transient.fired_events.size(),
            r_full.transient.fired_events.size());
  for (std::size_t j = 0; j < cfg.columns; ++j) {
    ASSERT_TRUE(r_early.columns[j].terminated) << "column " << j;
    // Identical stepping up to the stop point: fire times match exactly.
    EXPECT_EQ(r_early.columns[j].t_terminate, r_full.columns[j].t_terminate)
        << "column " << j;
    // The select gate is down, so only sub-threshold leakage still nudges
    // the gap over the truncated tail — well under 1%.
    EXPECT_NEAR(r_early.columns[j].final_gap, r_full.columns[j].final_gap,
                1e-2 * std::fabs(r_full.columns[j].final_gap));
  }
}

// Property: on randomly drawn banks the hierarchical and monolithic solves of
// the same netlist terminate every column alike. When both runs accepted the
// same time points they agree on every probe to 1e-9. Otherwise a rounding-
// level difference between the two LU paths flipped an adaptive step
// decision and the runs stepped apart from there; they must still agree to
// one step: fire times within the bank transient's 20 ns dt_max, final gaps
// and source energy within 1 %.
class BankEquivalenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BankEquivalenceProperty, RandomBankHierMatchesMonolithic) {
  oxmlc::Rng rng(GetParam());
  const std::size_t kRows[] = {8, 16, 32, 64, 1024};
  const auto& table2 = oxmlc::mlc::paper_table2();

  oxmlc::array::BankWritePathConfig cfg;
  cfg.columns = 1 + rng.uniform_index(8);
  cfg.rows = kRows[rng.uniform_index(5)];
  cfg.bl_segments = 2 + rng.uniform_index(3);
  for (std::size_t j = 0; j < cfg.columns; ++j) {
    cfg.irefs.push_back(table2[rng.uniform_index(table2.size())].iref);
  }
  cfg.pulse_width = 4.5e-6;
  cfg.t_stop = 4.8e-6;
  if (rng.uniform() < 0.5) cfg.stop_after_terminated = 50e-9;

  cfg.hierarchical = false;
  const auto r_mono = oxmlc::array::BankWritePath(cfg).run();
  cfg.hierarchical = true;
  const auto r_hier = oxmlc::array::BankWritePath(cfg).run();

  ASSERT_TRUE(r_mono.transient.completed);
  ASSERT_TRUE(r_hier.transient.completed);
  const auto rel = [](double a, double b) {
    return std::fabs(a - b) / std::max(std::fabs(a), 1e-300);
  };
  for (std::size_t j = 0; j < cfg.columns; ++j) {
    ASSERT_TRUE(r_mono.columns[j].terminated) << "column " << j;
    ASSERT_TRUE(r_hier.columns[j].terminated) << "column " << j;
    EXPECT_NEAR(r_hier.columns[j].t_terminate, r_mono.columns[j].t_terminate, 20e-9)
        << "column " << j;
    EXPECT_LT(rel(r_mono.columns[j].final_gap, r_hier.columns[j].final_gap), 1e-2)
        << "column " << j;
  }
  EXPECT_LT(rel(r_mono.energy_source, r_hier.energy_source), 1e-2);

  const bool same_steps = r_mono.transient.times == r_hier.transient.times;
  RecordProperty("same_steps", same_steps ? 1 : 0);
  if (!same_steps) return;
  for (std::size_t p = 0; p < r_mono.transient.probe_values.size(); ++p) {
    EXPECT_LT(rel_max_diff(r_mono.transient.probe_values[p],
                           r_hier.transient.probe_values[p]),
              1e-9)
        << "probe " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BankEquivalenceProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(LinearSolverPartition, RoutesThroughSchurAndBack) {
  BbdSystem sys = make_bbd(4, 30, 6, 0x55);
  const std::size_t n = sys.a.size();

  LinearSolver solver;
  solver.set_partition(sys.partition);
  EXPECT_TRUE(solver.partitioned());
  solver.factorize_cached(sys.a);
  std::vector<double> x_hier(n);
  solver.solve(sys.rhs, x_hier);

  solver.clear_partition();
  EXPECT_FALSE(solver.partitioned());
  solver.factorize_cached(sys.a);
  std::vector<double> x_mono(n);
  solver.solve(sys.rhs, x_mono);

  EXPECT_LT(rel_max_diff(x_mono, x_hier), 1e-9);
}

// A new partition has no factors yet: the monolithic factors of an earlier
// system must not answer for it.
TEST(LinearSolverPartition, NewPartitionStartsUnfactorized) {
  BbdSystem sys = make_bbd(4, 30, 6, 0x55);
  std::vector<double> x(sys.a.size());

  LinearSolver solver;
  solver.factorize_cached(sys.a);
  EXPECT_TRUE(solver.factorized());
  solver.set_partition(sys.partition);
  EXPECT_FALSE(solver.factorized());
  EXPECT_THROW(solver.solve(sys.rhs, x), oxmlc::InvalidArgumentError);
  solver.factorize_cached(sys.a);
  EXPECT_TRUE(solver.factorized());
}

}  // namespace

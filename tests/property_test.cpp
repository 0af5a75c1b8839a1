// Property-based tests: parameterized sweeps asserting invariants across wide
// input ranges rather than single examples.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "devices/mosfet.hpp"
#include "devices/passive.hpp"
#include "devices/sources.hpp"
#include "mlc/program.hpp"
#include "numeric/sparse_lu.hpp"
#include "oxram/batch_kernel.hpp"
#include "oxram/fast_cell.hpp"
#include "oxram/model.hpp"
#include "oxram/reference_pulse.hpp"
#include "spice/dc.hpp"
#include "util/rng.hpp"

namespace oxmlc {
namespace {

// ---------------------------------------------------------------------------
// Property: for any randomly generated resistive ladder network, the MNA
// solution satisfies KCL at every node to solver tolerance.
// ---------------------------------------------------------------------------

class RandomLadderKcl : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomLadderKcl, SolutionSatisfiesKcl) {
  Rng rng(GetParam());
  spice::Circuit c;
  const std::size_t n_nodes = 4 + rng.uniform_index(20);
  std::vector<int> nodes;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    nodes.push_back(c.node("n" + std::to_string(i)));
  }
  // A random spanning chain guarantees connectivity, plus random extra edges.
  std::vector<dev::Resistor*> resistors;
  for (std::size_t i = 1; i < n_nodes; ++i) {
    resistors.push_back(&c.add<dev::Resistor>(
        "Rchain" + std::to_string(i), nodes[i - 1], nodes[i],
        std::pow(10.0, rng.uniform(2.0, 6.0))));
  }
  const std::size_t extras = rng.uniform_index(12);
  for (std::size_t e = 0; e < extras; ++e) {
    const int a = nodes[rng.uniform_index(n_nodes)];
    const int b = rng.uniform() < 0.3 ? spice::kGround
                                      : nodes[rng.uniform_index(n_nodes)];
    if (a == b) continue;
    resistors.push_back(&c.add<dev::Resistor>("Rx" + std::to_string(e), a, b,
                                              std::pow(10.0, rng.uniform(2.0, 6.0))));
  }
  c.add<dev::VoltageSource>("V", nodes[0], spice::kGround, rng.uniform(0.5, 3.3));
  c.add<dev::Resistor>("Rgnd", nodes[n_nodes - 1], spice::kGround,
                       std::pow(10.0, rng.uniform(2.0, 5.0)));

  spice::MnaSystem system(c);
  const auto result = spice::solve_dc(system);
  ASSERT_TRUE(result.converged);

  // KCL check per node: sum of resistor currents into the node (excluding the
  // source node, whose branch carries the balance).
  std::vector<double> net(c.node_count(), 0.0);
  for (dev::Resistor* r : resistors) {
    const double i = r->current(result.solution);
    if (r->nodes()[0] >= 0) net[static_cast<std::size_t>(r->nodes()[0])] -= i;
    if (r->nodes()[1] >= 0) net[static_cast<std::size_t>(r->nodes()[1])] += i;
  }
  // Also the explicit ground resistor.
  {
    auto* rg = dynamic_cast<dev::Resistor*>(c.find_device("Rgnd"));
    const double i = rg->current(result.solution);
    net[static_cast<std::size_t>(rg->nodes()[0])] -= i;
  }
  for (std::size_t k = 1; k < n_nodes; ++k) {  // node 0 carries the source branch
    EXPECT_NEAR(net[static_cast<std::size_t>(nodes[k])], 0.0, 1e-7)
        << "KCL violated at node " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLadderKcl,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---------------------------------------------------------------------------
// Property: sparse LU equals dense LU on random diagonally-dominant systems.
// ---------------------------------------------------------------------------

class SparseDenseEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SparseDenseEquivalence, SameSolution) {
  Rng rng(GetParam());
  const std::size_t n = 3 + rng.uniform_index(50);
  num::TripletMatrix triplets(n);
  num::DenseMatrix dense(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    const double d = 5.0 + rng.uniform();
    triplets.add(r, r, d);
    dense.add(r, r, d);
    const std::size_t offdiag = rng.uniform_index(4);
    for (std::size_t k = 0; k < offdiag; ++k) {
      const std::size_t col = rng.uniform_index(n);
      const double v = rng.normal(0, 0.8);
      triplets.add(r, col, v);
      dense.add(r, col, v);
    }
  }
  std::vector<double> b(n);
  for (auto& v : b) v = rng.normal(0, 1);

  num::SparseLu sparse;
  sparse.factorize(num::CsrMatrix::from_triplets(triplets));
  num::DenseLu dlu;
  dlu.factorize(dense);
  std::vector<double> xs(n), xd(n);
  sparse.solve(b, xs);
  dlu.solve(b, xd);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseDenseEquivalence,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ---------------------------------------------------------------------------
// Property: MOSFET level-1 current is monotone in Vgs and Vds (fixed bulk),
// and the stamped derivatives are consistent everywhere sampled.
// ---------------------------------------------------------------------------

class MosfetMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MosfetMonotonicity, IdsMonotoneAndDerivativesConsistent) {
  Rng rng(GetParam());
  dev::MosfetParams p = dev::tech130hv::nmos(rng.uniform(0.5e-6, 50e-6),
                                             rng.uniform(0.2e-6, 4e-6));
  p.lambda = rng.uniform(0.0, 0.1);
  for (int trial = 0; trial < 30; ++trial) {
    const double vgs = rng.uniform(0.0, 3.3);
    const double vds = rng.uniform(0.0, 3.3);
    const double vbs = rng.uniform(-1.0, 0.0);
    const auto base = dev::evaluate_level1(p, vgs, vds, vbs);
    const auto up_g = dev::evaluate_level1(p, vgs + 1e-3, vds, vbs);
    const auto up_d = dev::evaluate_level1(p, vgs, vds + 1e-3, vbs);
    EXPECT_GE(up_g.ids, base.ids - 1e-15);
    EXPECT_GE(up_d.ids, base.ids - 1e-15);
    EXPECT_GE(base.gm, 0.0);
    EXPECT_GE(base.gds, 0.0);
    EXPECT_GE(base.gmbs, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MosfetMonotonicity, ::testing::Values(7, 14, 28, 56));

// ---------------------------------------------------------------------------
// Property: terminated RESET across the whole (iref, C2C, D2D) space —
// resistance bounded by the physical window, latency positive, energy
// positive, and the final current at the termination instant ~= iref.
// ---------------------------------------------------------------------------

class TerminatedResetProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TerminatedResetProperty, PhysicalInvariantsHold) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 5; ++trial) {
    const auto device = oxram::sample_device(oxram::OxramParams{},
                                             oxram::OxramVariability{}, rng);
    oxram::FastCell cell = oxram::FastCell::formed_lrs(device, oxram::StackConfig{});
    cell.set_rate_factor(oxram::sample_cycle_rate_factor(oxram::OxramVariability{}, rng));
    cell.apply_set(oxram::SetOperation{});

    const double iref = rng.uniform(6e-6, 36e-6);
    oxram::ResetOperation op;
    op.iref = iref;
    op.pulse.width = 10e-6;
    oxram::FastCell reference_cell = cell;
    const auto result = cell.apply_reset(op);
    ASSERT_TRUE(result.terminated);

    EXPECT_GT(result.t_terminate, 0.0);
    EXPECT_LE(result.t_terminate, 10e-6);
    EXPECT_GT(result.energy_source, 0.0);
    EXPECT_GE(result.energy_source, result.energy_cell);

    const double r = cell.read().r_cell;
    EXPECT_GT(r, 20e3);   // never below the shallowest MLC state
    EXPECT_LT(r, 600e3);  // never into the saturated-HRS decade

    // At the crossing sample the current is within a few percent of iref
    // (the per-step history comes from the reference stepper, the only code
    // that records one).
    std::vector<oxram::TrajectoryPoint> trajectory;
    const auto reference = oxram::reference_pulse(reference_cell, op, &trajectory);
    double at_crossing = 0.0;
    for (const auto& pt : trajectory) {
      if (pt.t <= reference.t_terminate) at_crossing = pt.current;
    }
    EXPECT_NEAR(at_crossing, iref, 0.08 * iref);

    // Gap stays inside the physical window.
    EXPECT_GE(cell.gap(), device.g_min * (1 - 1e-12));
    EXPECT_LE(cell.gap(), device.g_max * (1 + 1e-12));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TerminatedResetProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// ---------------------------------------------------------------------------
// Property: one programming engine. CellBatch is the only production stepper,
// so two contracts must hold for random devices, levels and words of 1 to 33
// cells:
//   (a) lane independence — program() on one cell is bitwise that cell's lane
//       of a program_word (same outcome, same final state, same rng draws);
//   (b) the batch engine agrees with the reference stepper
//       (oxram/reference_pulse.hpp) within 1e-9 for SET, RESET and forming.
// ---------------------------------------------------------------------------

std::uint64_t bits_of(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

double rel_diff(double a, double b) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return scale > 0.0 ? std::fabs(a - b) / scale : 0.0;
}

const mlc::QlcProgrammer& qlc_programmer() {
  static const mlc::QlcProgrammer programmer(mlc::QlcConfig::paper_default(4, 13));
  return programmer;
}

// A sampled device at a random starting state: formed LRS or anywhere in its
// switching window (a reprogram).
oxram::FastCell random_cell(Rng& rng) {
  const auto device =
      oxram::sample_device(oxram::OxramParams{}, oxram::OxramVariability{}, rng);
  const double gap =
      rng.uniform() < 0.5 ? device.g_min : rng.uniform(device.g_min, device.g_max);
  return oxram::FastCell(device, oxram::StackConfig{}, gap);
}

class OneEngineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OneEngineEquivalence, ProgramIsBitwiseItsLaneOfProgramWord) {
  const mlc::QlcProgrammer& programmer = qlc_programmer();
  Rng rng(GetParam());
  const std::size_t n = 1 + rng.uniform_index(33);
  std::vector<oxram::FastCell> word_cells, alone_cells;
  std::vector<std::size_t> levels(n);
  std::vector<Rng> word_rngs, alone_rngs;
  for (std::size_t k = 0; k < n; ++k) {
    word_cells.push_back(random_cell(rng));
    alone_cells.push_back(word_cells.back());
    levels[k] = rng.uniform_index(programmer.config().allocation.count());
    const Rng stream = rng.split();  // copied: identical streams per path
    word_rngs.push_back(stream);
    alone_rngs.push_back(stream);
  }
  std::vector<oxram::FastCell*> cell_ptrs(n);
  std::vector<Rng*> rng_ptrs(n);
  for (std::size_t k = 0; k < n; ++k) {
    cell_ptrs[k] = &word_cells[k];
    rng_ptrs[k] = &word_rngs[k];
  }
  const std::vector<mlc::ProgramOutcome> word =
      programmer.program_word(cell_ptrs, levels, rng_ptrs);

  for (std::size_t k = 0; k < n; ++k) {
    SCOPED_TRACE("n=" + std::to_string(n) + " lane=" + std::to_string(k));
    const mlc::ProgramOutcome alone =
        programmer.program(alone_cells[k], levels[k], alone_rngs[k]);
    EXPECT_EQ(alone.level, word[k].level);
    EXPECT_EQ(alone.terminated, word[k].terminated);
    EXPECT_EQ(alone.pulses, word[k].pulses);
    EXPECT_EQ(bits_of(alone.effective_iref), bits_of(word[k].effective_iref));
    EXPECT_EQ(bits_of(alone.resistance), bits_of(word[k].resistance));
    EXPECT_EQ(bits_of(alone.latency), bits_of(word[k].latency));
    EXPECT_EQ(bits_of(alone.energy), bits_of(word[k].energy));
    EXPECT_EQ(bits_of(alone.set_energy), bits_of(word[k].set_energy));
    EXPECT_EQ(bits_of(alone_cells[k].gap()), bits_of(word_cells[k].gap()));
    EXPECT_EQ(bits_of(alone_cells[k].rate_factor()),
              bits_of(word_cells[k].rate_factor()));
    EXPECT_EQ(alone_rngs[k].next_u64(), word_rngs[k].next_u64());
  }
}

TEST_P(OneEngineEquivalence, BatchMatchesReferenceStepper) {
  Rng rng(GetParam());
  const std::size_t n = 1 + rng.uniform_index(33);
  enum class Kind { kSet, kReset, kForming };
  std::vector<Kind> kinds;
  std::vector<oxram::SetOperation> sets(n);
  std::vector<oxram::ResetOperation> resets(n);
  std::vector<oxram::FastCell> batch_cells;
  for (std::size_t k = 0; k < n; ++k) {
    const Kind kind = static_cast<Kind>(rng.uniform_index(3));
    kinds.push_back(kind);
    oxram::FastCell cell = random_cell(rng);
    if (kind == Kind::kForming) {
      cell.set_gap(cell.params().g_virgin);
      cell.set_virgin(true);
    } else if (kind == Kind::kSet) {
      // Compliance-limited SETs too (the IC-SET baseline's WL range).
      sets[k].v_wl = rng.uniform(0.8, 2.0);
    } else if (rng.uniform() < 0.75) {
      resets[k].iref = rng.uniform(6e-6, 36e-6);  // terminated RESET
      resets[k].pulse.width = 10e-6;
    } else {
      resets[k].pulse.amplitude = rng.uniform(1.0, 1.8);  // fixed VRST pulse
      resets[k].pulse.width = 200e-9;
    }
    cell.set_rate_factor(
        oxram::sample_cycle_rate_factor(oxram::OxramVariability{}, rng));
    batch_cells.push_back(cell);
  }
  std::vector<oxram::FastCell> reference_cells = batch_cells;

  // All three kinds share one batch: lanes must not see each other.
  oxram::CellBatch batch;
  for (std::size_t k = 0; k < n; ++k) {
    switch (kinds[k]) {
      case Kind::kSet:
        batch.add_set(batch_cells[k], sets[k]);
        break;
      case Kind::kReset:
        batch.add_reset(batch_cells[k], resets[k]);
        break;
      case Kind::kForming:
        batch.add_set(batch_cells[k], oxram::kForming);
        break;
    }
  }
  const std::vector<oxram::OperationResult> results = batch.run();

  for (std::size_t k = 0; k < n; ++k) {
    SCOPED_TRACE("n=" + std::to_string(n) + " lane=" + std::to_string(k) +
                 " kind=" + std::to_string(static_cast<int>(kinds[k])));
    oxram::FastCell& cell = reference_cells[k];
    const oxram::SetOperation& forming = oxram::kForming;
    const oxram::OperationResult ref =
        kinds[k] == Kind::kSet     ? oxram::reference_pulse(cell, sets[k])
        : kinds[k] == Kind::kReset ? oxram::reference_pulse(cell, resets[k])
                                   : oxram::reference_pulse(cell, forming);
    EXPECT_EQ(results[k].terminated, ref.terminated);
    EXPECT_EQ(batch_cells[k].virgin(), cell.virgin());
    EXPECT_LT(rel_diff(batch_cells[k].gap(), cell.gap()), 1e-9);
    EXPECT_LT(rel_diff(results[k].final_gap, ref.final_gap), 1e-9);
    EXPECT_LT(rel_diff(results[k].t_terminate, ref.t_terminate), 1e-9);
    EXPECT_LT(rel_diff(results[k].t_end, ref.t_end), 1e-9);
    EXPECT_LT(rel_diff(results[k].energy_source, ref.energy_source), 1e-9);
    EXPECT_LT(rel_diff(results[k].energy_cell, ref.energy_cell), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OneEngineEquivalence,
                         ::testing::Values(0xE1, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7,
                                           0xE8));

// ---------------------------------------------------------------------------
// Property: R(IrefR) is strictly decreasing for any D2D device sample
// (monotonicity is what makes ISO-dI allocation decodable).
// ---------------------------------------------------------------------------

class MonotoneAllocation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MonotoneAllocation, ResistanceStrictlyDecreasingInIref) {
  Rng rng(GetParam());
  const auto device =
      oxram::sample_device(oxram::OxramParams{}, oxram::OxramVariability{}, rng);
  double prev = std::numeric_limits<double>::infinity();
  for (double iref = 6e-6; iref <= 36e-6 + 1e-9; iref += 6e-6) {
    oxram::FastCell cell = oxram::FastCell::formed_lrs(device, oxram::StackConfig{});
    cell.apply_set(oxram::SetOperation{});
    oxram::ResetOperation op;
    op.iref = iref;
    op.pulse.width = 10e-6;
    cell.apply_reset(op);
    const double r = cell.read().r_cell;
    EXPECT_LT(r, prev) << "non-monotone at iref=" << iref;
    prev = r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotoneAllocation, ::testing::Values(3, 6, 9, 12));

// ---------------------------------------------------------------------------
// Property: the conduction law's resistance is monotone in the gap for any
// read voltage in the operating range.
// ---------------------------------------------------------------------------

class ConductionMonotone : public ::testing::TestWithParam<double> {};

TEST_P(ConductionMonotone, ResistanceIncreasesWithGap) {
  const oxram::OxramParams p;
  const double v_read = GetParam();
  double prev = 0.0;
  for (double g = p.g_min; g <= p.g_max; g += 0.05e-9) {
    const double r = oxram::resistance_at(p, v_read, g);
    EXPECT_GT(r, prev);
    prev = r;
  }
}

INSTANTIATE_TEST_SUITE_P(ReadVoltages, ConductionMonotone,
                         ::testing::Values(0.1, 0.2, 0.3, 0.5, 0.8));

}  // namespace
}  // namespace oxmlc

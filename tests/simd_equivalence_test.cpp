// SIMD-vs-scalar equivalence suite for the dispatched batch kernels.
//
// Two distinct guarantees, asserted separately:
//   * pack vs REFERENCE: the pack kernels (own polynomial exp/log1p) match
//     their scalar-libm test oracles — drifted_gap_batch_reference for drift,
//     the reference stepper (oxram/reference_pulse.hpp) for CellBatch — to
//     well under 1e-9 relative, the pin every batch-vs-scalar pairing in the
//     repo is held to;
//   * pack vs pack: the portable and AVX2 instantiations are BITWISE
//     identical, so runtime dispatch can never change a simulation result.
// Lane-count edges (odd sizes exercising the padded remainder pack), denormal
// and saturated inputs are covered explicitly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "mlc/levels.hpp"
#include "mlc/program.hpp"
#include "numeric/simd.hpp"
#include "oxram/batch_kernel.hpp"
#include "oxram/drift.hpp"
#include "oxram/fast_cell.hpp"
#include "oxram/reference_pulse.hpp"
#include "util/rng.hpp"

namespace oxmlc::oxram {
namespace {

struct DriftLanes {
  std::vector<double> anchor, g_min, relax, drift, t;

  explicit DriftLanes(std::size_t n) : anchor(n), g_min(n), relax(n), drift(n), t(n) {}

  std::size_t size() const { return anchor.size(); }

  static DriftLanes randomized(std::size_t n, std::uint64_t seed) {
    DriftLanes lanes(n);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
      lanes.g_min[i] = 0.2e-9 + 0.2e-9 * rng.uniform();
      lanes.anchor[i] = lanes.g_min[i] + 2.5e-9 * rng.uniform();
      lanes.relax[i] = 0.05 * rng.lognormal(0.0, 0.9);
      lanes.drift[i] = 0.15 * rng.lognormal(0.0, 0.3);
      // Decades of time including exact zero and negative (pre-anchor) draws.
      const double decade = rng.uniform(-9.0, 9.0);
      const double pick = rng.uniform();
      lanes.t[i] = pick < 0.05 ? 0.0 : (pick < 0.1 ? -1.0 : std::pow(10.0, decade));
    }
    return lanes;
  }

  std::vector<double> run(num::simd::Backend backend, const DriftParams& p) const {
    std::vector<double> out(size());
    const num::simd::Backend prev = num::simd::set_backend_override(backend);
    drifted_gap_batch(p, anchor, g_min, relax, drift, t, out);
    num::simd::set_backend_override(prev);
    return out;
  }
};

// Randomized lanes at odd sizes: every remainder shape of the 4-wide pack.
TEST(DriftSimd, PackMatchesReferenceWithin1e9AcrossLaneCounts) {
  const DriftParams p;
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 63u, 64u, 65u, 1021u}) {
    const DriftLanes lanes = DriftLanes::randomized(n, 0x5EEDF00Dull + n);
    std::vector<double> reference(n);
    drifted_gap_batch_reference(p, lanes.anchor, lanes.g_min, lanes.relax, lanes.drift,
                                lanes.t, reference);
    const std::vector<double> pack = lanes.run(num::simd::Backend::kScalar, p);
    for (std::size_t i = 0; i < n; ++i) {
      const double scale = std::max(std::fabs(reference[i]), 1e-300);
      EXPECT_LT(std::fabs(pack[i] - reference[i]) / scale, 1e-12)
          << "n=" << n << " lane=" << i << " t=" << lanes.t[i];
      // And the pack path agrees with the one-lane scalar model exactly as
      // well as the reference loop does.
      const double scalar = drifted_gap(p, lanes.anchor[i], lanes.g_min[i],
                                        lanes.relax[i], lanes.drift[i], lanes.t[i]);
      EXPECT_LT(std::fabs(pack[i] - scalar) / std::max(std::fabs(scalar), 1e-300), 1e-9)
          << "n=" << n << " lane=" << i;
    }
  }
}

TEST(DriftSimd, DenormalAndSaturatedEdges) {
  const DriftParams p;
  const double denorm = 5e-324;
  const double huge = 1e300;
  DriftLanes lanes(7);
  // lane 0: zero-depth cell (anchor == g_min) — drift must be a no-op.
  lanes.anchor[0] = lanes.g_min[0] = 1e-9;
  lanes.relax[0] = 0.5; lanes.drift[0] = 0.5; lanes.t[0] = 1e3;
  // lane 1: denormal time — phi ~ 0, gap stays at the anchor.
  lanes.anchor[1] = 2e-9; lanes.g_min[1] = 0.3e-9;
  lanes.relax[1] = 0.05; lanes.drift[1] = 0.1; lanes.t[1] = denorm;
  // lane 2: saturated time — both kernels at phi = 1.
  lanes.anchor[2] = 2e-9; lanes.g_min[2] = 0.3e-9;
  lanes.relax[2] = 0.05; lanes.drift[2] = 0.1; lanes.t[2] = huge;
  // lane 3: amplitudes past 1 — loss clamps, gap floors at g_min.
  lanes.anchor[3] = 2e-9; lanes.g_min[3] = 0.3e-9;
  lanes.relax[3] = 3.0; lanes.drift[3] = 4.0; lanes.t[3] = 1e6;
  // lane 4: denormal amplitudes — loss underflows harmlessly.
  lanes.anchor[4] = 2e-9; lanes.g_min[4] = 0.3e-9;
  lanes.relax[4] = denorm; lanes.drift[4] = denorm; lanes.t[4] = 1.0;
  // lane 5: negative time (observation before the anchor event).
  lanes.anchor[5] = 2e-9; lanes.g_min[5] = 0.3e-9;
  lanes.relax[5] = 0.05; lanes.drift[5] = 0.1; lanes.t[5] = -5.0;
  // lane 6: inverted depth (anchor below the floor) clamps to zero depth.
  lanes.anchor[6] = 0.2e-9; lanes.g_min[6] = 0.3e-9;
  lanes.relax[6] = 0.05; lanes.drift[6] = 0.1; lanes.t[6] = 1e3;

  const std::vector<double> pack = lanes.run(num::simd::Backend::kScalar, p);
  std::vector<double> reference(lanes.size());
  drifted_gap_batch_reference(p, lanes.anchor, lanes.g_min, lanes.relax, lanes.drift,
                              lanes.t, reference);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const double scale = std::max(std::fabs(reference[i]), 1e-300);
    EXPECT_LT(std::fabs(pack[i] - reference[i]) / scale, 1e-12) << "lane " << i;
  }
  EXPECT_EQ(pack[0], lanes.anchor[0]);
  EXPECT_EQ(pack[1], lanes.anchor[1]);
  EXPECT_NEAR(pack[2], lanes.g_min[2] + (lanes.anchor[2] - lanes.g_min[2]) * 0.85,
              0.2e-9);  // phi = 1: loses relax+drift of the depth
  EXPECT_NEAR(pack[3], lanes.g_min[3], 1e-15);  // clamped full loss
  EXPECT_EQ(pack[5], lanes.anchor[5]);
  EXPECT_EQ(pack[6], lanes.anchor[6]);
}

TEST(DriftSimd, DisabledDriftCopiesAnchorsOnEveryBackend) {
  DriftParams off;
  off.enabled = false;
  const DriftLanes lanes = DriftLanes::randomized(13, 0xD15AB1Eull);
  for (num::simd::Backend backend :
       {num::simd::Backend::kScalar, num::simd::Backend::kAvx2}) {
    const std::vector<double> out = lanes.run(backend, off);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      EXPECT_EQ(out[i], lanes.anchor[i]) << "lane " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// CellBatch vector engine (batch_simd.cpp)
// ---------------------------------------------------------------------------

double rel_diff(double a, double b) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return scale > 0.0 ? std::fabs(a - b) / scale : 0.0;
}

struct BatchSnapshot {
  std::vector<double> gaps;
  std::vector<OperationResult> results;
};

std::vector<OxramParams> sampled_devices(std::size_t n_lanes, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<OxramParams> devices;
  for (std::size_t k = 0; k < n_lanes; ++k) {
    Rng lane_rng = rng.split();
    devices.push_back(sample_device(OxramParams{}, OxramVariability{}, lane_rng));
  }
  return devices;
}

// Terminated RESET of lane k (levels cycle through the QLC allocation).
ResetOperation reset_for_lane(const mlc::QlcConfig& config, std::size_t k) {
  ResetOperation reset = config.reset_op;
  reset.iref = config.allocation.levels[k % config.allocation.count()].iref;
  return reset;
}

// Programs `n_lanes` sampled devices through a SET and a terminated RESET
// word on the pack engine under a forced backend.
BatchSnapshot run_reset_word(num::simd::Backend backend, std::size_t n_lanes,
                             std::uint64_t seed) {
  const mlc::QlcConfig config = mlc::QlcConfig::paper_default();
  const std::vector<OxramParams> devices = sampled_devices(n_lanes, seed);
  const num::simd::Backend prev = num::simd::set_backend_override(backend);
  std::vector<FastCell> cells;
  CellBatch batch;
  for (std::size_t k = 0; k < n_lanes; ++k) {
    cells.push_back(FastCell::formed_lrs(devices[k], config.stack));
    cells[k].apply_set(config.set_op);
  }
  for (std::size_t k = 0; k < n_lanes; ++k) {
    batch.add_reset(cells[k], reset_for_lane(config, k));
  }
  BatchSnapshot snap;
  snap.results = batch.run();
  num::simd::set_backend_override(prev);
  for (const FastCell& cell : cells) snap.gaps.push_back(cell.gap());
  return snap;
}

// The same word, one cell at a time through the reference stepper.
BatchSnapshot reference_reset_word(std::size_t n_lanes, std::uint64_t seed) {
  const mlc::QlcConfig config = mlc::QlcConfig::paper_default();
  const std::vector<OxramParams> devices = sampled_devices(n_lanes, seed);
  BatchSnapshot snap;
  for (std::size_t k = 0; k < n_lanes; ++k) {
    FastCell cell = FastCell::formed_lrs(devices[k], config.stack);
    reference_pulse(cell, config.set_op);
    snap.results.push_back(reference_pulse(cell, reset_for_lane(config, k)));
    snap.gaps.push_back(cell.gap());
  }
  return snap;
}

// Forms `n_lanes` virgin devices (exercises the voltage-cap and cold-start
// scalar fallbacks, the forming barrier, and the virgin -> formed flip).
BatchSnapshot run_forming(num::simd::Backend backend, std::size_t n_lanes,
                          std::uint64_t seed) {
  const std::vector<OxramParams> devices = sampled_devices(n_lanes, seed);
  std::vector<FastCell> cells;
  CellBatch batch;
  for (const OxramParams& device : devices) {
    cells.emplace_back(device, StackConfig{}, device.g_virgin, /*virgin=*/true);
  }
  for (FastCell& cell : cells) batch.add_forming(cell, FormingOperation{});
  const num::simd::Backend prev = num::simd::set_backend_override(backend);
  BatchSnapshot snap;
  snap.results = batch.run();
  num::simd::set_backend_override(prev);
  for (const FastCell& cell : cells) snap.gaps.push_back(cell.gap());
  return snap;
}

BatchSnapshot reference_forming(std::size_t n_lanes, std::uint64_t seed) {
  BatchSnapshot snap;
  for (const OxramParams& device : sampled_devices(n_lanes, seed)) {
    FastCell cell(device, StackConfig{}, device.g_virgin, /*virgin=*/true);
    snap.results.push_back(reference_pulse(cell, FormingOperation{}));
    snap.gaps.push_back(cell.gap());
  }
  return snap;
}

void expect_snapshots_close(const BatchSnapshot& ref, const BatchSnapshot& simd,
                            double tol) {
  ASSERT_EQ(ref.gaps.size(), simd.gaps.size());
  for (std::size_t k = 0; k < ref.gaps.size(); ++k) {
    EXPECT_LT(rel_diff(simd.gaps[k], ref.gaps[k]), tol) << "lane " << k;
    EXPECT_EQ(simd.results[k].terminated, ref.results[k].terminated) << "lane " << k;
    EXPECT_LT(rel_diff(simd.results[k].final_gap, ref.results[k].final_gap), tol)
        << "lane " << k;
    EXPECT_LT(rel_diff(simd.results[k].t_terminate, ref.results[k].t_terminate), tol)
        << "lane " << k;
    EXPECT_LT(rel_diff(simd.results[k].energy_cell, ref.results[k].energy_cell),
              10.0 * tol)
        << "lane " << k;
  }
}

// The pack engine must track the reference stepper within the 1e-9 pin —
// including at odd lane counts where the tail pack is padded.
TEST(BatchSimd, ResetWordMatchesReferenceEngineAcrossLaneCounts) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 16u, 33u}) {
    const BatchSnapshot ref = reference_reset_word(n, 0xBA7C4ull + n);
    const BatchSnapshot simd =
        run_reset_word(num::simd::Backend::kScalar, n, 0xBA7C4ull + n);
    expect_snapshots_close(ref, simd, 1e-9);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_TRUE(simd.results[k].terminated) << "lane " << k;
    }
  }
}

TEST(BatchSimd, FormingMatchesReferenceEngine) {
  const BatchSnapshot ref = reference_forming(7, 0xF0A3ull);
  const BatchSnapshot simd = run_forming(num::simd::Backend::kScalar, 7, 0xF0A3ull);
  expect_snapshots_close(ref, simd, 1e-9);
}

#if OXMLC_SIMD_HAS_AVX2
// Dispatch-safety for the batch engine: forcing AVX2 must be byte-for-byte
// the portable pack on every observable.
TEST(BatchSimd, Avx2BitwiseIdenticalToPortableEngine) {
  if (!num::simd::avx2_available()) GTEST_SKIP() << "host CPU lacks AVX2+FMA";
  for (std::size_t n : {5u, 16u}) {
    const BatchSnapshot portable =
        run_reset_word(num::simd::Backend::kScalar, n, 0xB17ull + n);
    const BatchSnapshot avx = run_reset_word(num::simd::Backend::kAvx2, n, 0xB17ull + n);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(std::memcmp(&portable.gaps[k], &avx.gaps[k], sizeof(double)), 0)
          << "n=" << n << " lane=" << k;
      ASSERT_EQ(std::memcmp(&portable.results[k].t_terminate,
                            &avx.results[k].t_terminate, sizeof(double)),
                0)
          << "n=" << n << " lane=" << k;
      ASSERT_EQ(std::memcmp(&portable.results[k].energy_cell,
                            &avx.results[k].energy_cell, sizeof(double)),
                0)
          << "n=" << n << " lane=" << k;
    }
  }
}
#endif

#if OXMLC_SIMD_HAS_AVX2
// Dispatch-safety: the AVX2 kernel must be byte-for-byte the portable pack.
TEST(DriftSimd, Avx2BitwiseIdenticalToPortablePack) {
  if (!num::simd::avx2_available()) GTEST_SKIP() << "host CPU lacks AVX2+FMA";
  const DriftParams p;
  for (std::size_t n : {5u, 64u, 1023u}) {
    const DriftLanes lanes = DriftLanes::randomized(n, 0xAB1DE5ull + n);
    const std::vector<double> portable = lanes.run(num::simd::Backend::kScalar, p);
    const std::vector<double> avx = lanes.run(num::simd::Backend::kAvx2, p);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::memcmp(&portable[i], &avx[i], sizeof(double)), 0)
          << "n=" << n << " lane=" << i << " portable=" << portable[i]
          << " avx=" << avx[i];
    }
  }
}
#endif

}  // namespace
}  // namespace oxmlc::oxram

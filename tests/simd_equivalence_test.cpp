// SIMD-vs-scalar equivalence suite for the dispatched batch kernel.
//
// Two distinct guarantees, asserted separately:
//   * pack vs REFERENCE: the CellBatch pack engine (own polynomial exp)
//     matches its scalar-libm test oracle, the reference stepper
//     (oxram/reference_pulse.hpp), to well under 1e-9 relative, the pin
//     every batch-vs-scalar pairing in the repo is held to;
//   * pack vs pack: the portable and AVX2 instantiations are BITWISE
//     identical, so runtime dispatch can never change a simulation result.
// Lane-count edges (odd sizes exercising the padded remainder pack) are
// covered explicitly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "mlc/levels.hpp"
#include "mlc/program.hpp"
#include "numeric/simd.hpp"
#include "oxram/batch_kernel.hpp"
#include "oxram/fast_cell.hpp"
#include "oxram/reference_pulse.hpp"
#include "util/rng.hpp"

namespace oxmlc::oxram {
namespace {

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
  for (FastCell& cell : cells) batch.add_set(cell, kForming);
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
    snap.results.push_back(reference_pulse(cell, kForming));
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

}  // namespace
}  // namespace oxmlc::oxram

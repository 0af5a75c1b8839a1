#include "spice/ac.hpp"

#include <cmath>

#include "numeric/dense_matrix.hpp"
#include "spice/dc.hpp"
#include "util/error.hpp"

namespace oxmlc::spice {

double AcResult::magnitude(std::size_t point, int unknown_index) const {
  OXMLC_CHECK(point < solutions.size(), "AC point out of range");
  OXMLC_CHECK(unknown_index >= 0, "cannot probe ground in AC results");
  return std::abs(solutions[point][static_cast<std::size_t>(unknown_index)]);
}

double AcResult::magnitude_db(std::size_t point, int unknown_index) const {
  return 20.0 * std::log10(std::max(magnitude(point, unknown_index), 1e-300));
}

double AcResult::phase_deg(std::size_t point, int unknown_index) const {
  OXMLC_CHECK(point < solutions.size(), "AC point out of range");
  OXMLC_CHECK(unknown_index >= 0, "cannot probe ground in AC results");
  return std::arg(solutions[point][static_cast<std::size_t>(unknown_index)]) * 180.0 /
         phys::kPi;
}

std::size_t AcResult::corner_index(int unknown_index) const {
  if (solutions.empty()) return 0;
  const double reference = magnitude(0, unknown_index);
  for (std::size_t k = 0; k < solutions.size(); ++k) {
    if (magnitude(k, unknown_index) < reference / std::sqrt(2.0)) return k;
  }
  return solutions.size();
}

AcResult run_ac(MnaSystem& system, const AcOptions& options) {
  OXMLC_CHECK(options.f_stop > options.f_start && options.f_start > 0.0,
              "run_ac: need 0 < f_start < f_stop");
  AcResult result;

  // --- operating point ---
  const DcResult dc = solve_dc(system);
  if (!dc.converged) return result;
  result.dc_operating_point = dc.solution;

  const std::size_t n = system.dimension();
  Circuit& circuit = system.circuit();
  StampContext& ctx = system.context();
  ctx.mode = AnalysisMode::kDcOperatingPoint;
  ctx.time = 0.0;
  ctx.dt = 0.0;
  ctx.source_scale = 1.0;

  // --- G: the exact linearization at the OP (assemble's Jacobian) ---
  num::TripletMatrix g(n);
  std::vector<double> residual(n, 0.0);
  system.assemble(dc.solution, &g, residual);

  // --- B: reactive stamps ---
  num::TripletMatrix b(n);
  for (const auto& device : circuit.devices()) {
    device->stamp_reactive(b);
  }

  // --- excitation vector ---
  std::vector<std::complex<double>> rhs(n, {0.0, 0.0});
  for (const auto& device : circuit.devices()) {
    device->stamp_ac_source(rhs);
  }

  // --- frequency grid (log spaced) ---
  const double decades = std::log10(options.f_stop / options.f_start);
  const auto points = static_cast<std::size_t>(
      std::ceil(decades * static_cast<double>(options.points_per_decade))) + 1;
  for (std::size_t k = 0; k < points; ++k) {
    const double frac = static_cast<double>(k) / static_cast<double>(points - 1);
    result.frequencies.push_back(options.f_start *
                                 std::pow(10.0, frac * decades));
  }

  // --- sweep ---
  std::vector<std::complex<double>> x(n);
  for (double f : result.frequencies) {
    const double omega = 2.0 * phys::kPi * f;
    num::ComplexDenseMatrix a(n, n);
    for (const auto& entry : g.entries()) {
      a.add(entry.row, entry.col, {entry.value, 0.0});
    }
    for (const auto& entry : b.entries()) {
      a.add(entry.row, entry.col, {0.0, omega * entry.value});
    }
    num::ComplexLu lu;
    lu.factorize(a);
    lu.solve(rhs, x);
    result.solutions.push_back(x);
  }
  result.converged = true;
  return result;
}

}  // namespace oxmlc::spice

// Internal: the quasi-static stack residual shared by the scalar solver
// (solve_stack, bisection) and the batched warm-start solver
// (solve_stack_warm, safeguarded Newton; see batch_kernel.hpp).
//
// Both solvers find the root of the same strictly decreasing function
//
//   F(I) = Ids_access(Vgs(I), Vds(I)) - I
//
// so factoring the residual here guarantees the two paths agree on the
// *equation* and differ only in how many evaluations they spend converging —
// the property the batch-vs-scalar equivalence suite leans on. F' <= -1
// everywhere (the -I term; the access-device terms only make it more
// negative), which gives the Newton path a global error bound:
// |I - root| <= |F(I)|.
#pragma once

#include <cmath>

#include "devices/mosfet.hpp"
#include "oxram/fast_cell.hpp"
#include "oxram/model.hpp"

namespace oxmlc::oxram::detail {

// Upper current bracket: no stack configuration reaches 10 mA (the paper's
// window tops out at 36 uA; even a fully-SET cell under forming bias stays
// below 1 mA).
inline constexpr double kStackCurrentMax = 10e-3;

// Cell-voltage saturation used when the conduction law cannot carry the
// probed current below this voltage (virgin devices early in forming).
inline constexpr double kStackVcellCap = 5.0;

// Drain current of the access transistor with Vds clamped at 0 (the stack
// solver only probes the forward-conduction branch).
inline double access_current(const dev::MosfetParams& params, double vgs, double vds) {
  if (vds <= 0.0) return 0.0;
  return dev::evaluate_level1(params, vgs, vds, 0.0).ids;
}

// Gate-source voltage of the diode-connected mirror input at current i
// (level-1 saturation inverse; the mirror is wide, so Vov stays small).
inline double mirror_drop(const dev::MosfetParams& params, double i) {
  if (i <= 0.0) return params.vt0;
  return params.vt0 + std::sqrt(2.0 * i / params.beta());
}

// Cell voltage magnitude carrying current i at gap g, saturated at v_cap.
inline double cell_voltage_capped(const OxramParams& cell, double i, double g,
                                  double v_cap) {
  if (i <= 0.0) return 0.0;
  if (cell_current(cell, v_cap, g) <= i) return v_cap;
  return voltage_for_current(cell, i, g, v_cap);
}

// One stack solve instance: the cell, its electrical environment, and the
// applied biases, frozen for the duration of one root find.
struct StackProblem {
  const OxramParams& cell;
  const StackConfig& stack;
  double g = 0.0;
  double v_drive = 0.0;
  double v_wl = 0.0;
  bool reset_polarity = false;
  bool through_mirror = false;

  // F(i).
  double residual(double i) const {
    const double v_c = cell_voltage_capped(cell, i, g, kStackVcellCap);
    const double v_sink = through_mirror ? mirror_drop(stack.mirror, i) : 0.0;
    double vgs = 0.0, vds = 0.0;
    if (reset_polarity) {
      // SL (drive) - access - BE - cell - TE/BL - [mirror] - gnd.
      const double n_be = v_sink + v_c;
      vgs = v_wl - n_be;
      vds = (v_drive - i * stack.r_series) - n_be;
    } else {
      // BL (drive) - TE - cell - BE - access - SL/gnd.
      const double n_be = v_drive - i * stack.r_series - v_c;
      vgs = v_wl;
      vds = n_be;
    }
    return access_current(stack.access, vgs, vds) - i;
  }

  // F(i) and dF/di in one evaluation (i > 0). The derivative assembles the
  // chain rule over the same pieces residual() uses: dv_cell/di from the cell
  // conductance (0 when the voltage cap binds), dv_sink/di from the mirror
  // square law, and the access device's (gm, gds) from the level-1 model.
  double residual_with_derivative(double i, double& dfdi, double* v_cell_out = nullptr,
                                  double* v_sink_out = nullptr) const {
    const double v_c = cell_voltage_capped(cell, i, g, kStackVcellCap);
    const double v_sink = through_mirror ? mirror_drop(stack.mirror, i) : 0.0;
    if (v_cell_out != nullptr) *v_cell_out = v_c;
    if (v_sink_out != nullptr) *v_sink_out = v_sink;

    const double dvc_di =
        v_c >= kStackVcellCap ? 0.0 : 1.0 / cell_conductance(cell, v_c, g);
    const double dvsink_di =
        through_mirror && i > 0.0 ? 1.0 / std::sqrt(2.0 * i * stack.mirror.beta()) : 0.0;

    double vgs = 0.0, vds = 0.0, dvgs_di = 0.0, dvds_di = 0.0;
    if (reset_polarity) {
      const double n_be = v_sink + v_c;
      vgs = v_wl - n_be;
      vds = (v_drive - i * stack.r_series) - n_be;
      dvgs_di = -(dvsink_di + dvc_di);
      dvds_di = -stack.r_series - (dvsink_di + dvc_di);
    } else {
      const double n_be = v_drive - i * stack.r_series - v_c;
      vgs = v_wl;
      vds = n_be;
      dvds_di = -stack.r_series - dvc_di;
    }

    if (vds <= 0.0) {
      dfdi = -1.0;
      return -i;
    }
    const dev::MosOperatingPoint op = dev::evaluate_level1(stack.access, vgs, vds, 0.0);
    dfdi = op.gm * dvgs_di + op.gds * dvds_di - 1.0;
    return op.ids - i;
  }
};

}  // namespace oxmlc::oxram::detail

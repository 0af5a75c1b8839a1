// The stepping engine of CellBatch: four lanes advance in lockstep through a
// v_cell-primal masked-Newton stack solve and pack gap integration.
//
// Why v_cell-primal: the scalar solvers (solve_stack, solve_stack_warm)
// iterate on the stack current I and pay an *inner* Newton inversion
// (voltage_for_current) for every residual evaluation. Rooting the equivalent residual
//
//   G(x) = Ids_access(Vgs(x), Vds(x)) - I_cell(x),   x = cell voltage
//
// evaluates the cell conduction law *directly* (one exp for the tunneling
// prefactor per solve, one exp per iteration for sinh/cosh), eliminating the
// inner inversion entirely. G is strictly decreasing (G' <= -g_cell < 0), so
// the same safeguarded-bisection bracket logic applies, and the acceptance
// bound |G(x)| <= max(relTol * I, absTol) implies the same current-space
// error bound the scalar solver guarantees (|I - root| <= |G|, since
// |dG/dI| >= 1 along the curve). The batch equivalence suites pin this
// engine against the reference stepper (reference_pulse.hpp) at 1e-9.
//
// Determinism contract: every pack update in this file is element-wise and
// masked per lane — a lane's arithmetic sequence depends only on its own
// state, never on which lanes share its pack or how many loop rounds its
// neighbours need. Results are therefore bitwise independent of pack
// grouping, and hence of lane sharding across threads. Lanes the vector
// solver cannot own (cold start, no conduction, voltage cap, non-convergence)
// fall back to the scalar solve_stack_warm for that step, which owns those
// edges by construction.
//
// This translation unit is compiled with -ffp-contract=off (see
// src/oxram/CMakeLists.txt): the portable pack lowers through plain C++
// arithmetic while the AVX2 pack uses explicit intrinsics, and letting the
// compiler fuse a*b+c into FMA on one side but not the other would break the
// bitwise PackScalar == PackAvx guarantee the dispatch safety tests pin.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "numeric/simd.hpp"
#include "obs/registry.hpp"
#include "oxram/batch_kernel.hpp"
#include "oxram/model.hpp"
#include "oxram/stack_solver.hpp"
#include "util/units.hpp"

namespace oxmlc::oxram {
namespace {

struct SimdMetrics {
  obs::Counter& lanes_retired = obs::registry().counter("batch.lanes_retired");
  obs::Gauge& lanes_active = obs::registry().gauge("batch.lanes_active");
  obs::Counter& fallback_solves = obs::registry().counter("batch.simd_fallback_solves");

  static SimdMetrics& get() {
    static SimdMetrics metrics;
    return metrics;
  }
};

// Per-pack gathered cell parameters (one Vec per OxramParams field the
// kernels touch; axi/bxi are the premultiplied barrier-lowering products).
template <typename P>
struct PackCell {
  using V = typename P::Vec;
  V i0, g0, v0, r_leak, g_min, g_max, g_ref, k0, ea_ox, ea_red, dea_form, axi, bxi,
      t_ambient, r_th, t_max_rise, g_upper_virgin, rate_factor;
};

// Per-pack gathered stack parameters and topology masks.
template <typename P>
struct PackStack {
  using V = typename P::Vec;
  V r_series, v_wl, acc_vt0, acc_beta, acc_lambda, mir_vt0, mir_beta;
  typename P::Mask reset, mirror;
};

// gap_rate() on a pack: same statement sequence as the scalar model with
// sinh folded into the one exp the clamp already bounds. Four exps serve
// four lanes where the scalar gap_rate() spends ~4 libm calls per lane.
template <typename P>
typename P::Vec gap_rate_pack(const PackCell<P>& c, typename P::Vec v,
                              typename P::Vec g, typename P::Mask virgin) {
  using V = typename P::Vec;
  const V zero = V::broadcast(0.0);
  const V half = V::broadcast(0.5);
  const V one = V::broadcast(1.0);

  // cell_current(v, g); sinh(clamp(v/v0)) via e - 1/e.
  const V arg = P::min(P::max(v / c.v0, V::broadcast(-60.0)), V::broadcast(60.0));
  const V e = num::simd::exp<P>(arg);
  const V sh = (e - one / e) * half;
  const V i = c.i0 * num::simd::exp<P>(zero - g / c.g0) * sh + v / c.r_leak;

  // local_temperature + kT in eV.
  const V t_loc = c.t_ambient + P::min(c.r_th * P::abs(v * i), c.t_max_rise);
  const V kt =
      V::broadcast(phys::kBoltzmann) * t_loc / V::broadcast(phys::kElementaryCharge);

  // Oxidation: RESET polarity drives it, self-limited through the field term.
  const V field = P::min(V::broadcast(2.0),
                         P::sqrt(c.g_ref / P::max(g, V::broadcast(0.25) * c.g_ref)));
  const V v_reset = P::max(zero, zero - v);
  const V ox_exponent = P::min(zero, (zero - (c.ea_ox - c.axi * v_reset * field)) / kt);
  const V ox = c.k0 * (one - g / c.g_max) * num::simd::exp<P>(ox_exponent);

  // Reduction: SET polarity; virgin lanes carry the forming barrier.
  const V ea_red = c.ea_red + P::select(virgin, c.dea_form, zero);
  const V v_set = P::max(zero, v);
  const V red_exponent = P::min(zero, (zero - (ea_red - c.bxi * v_set)) / kt);
  const V red = c.k0 * (g / c.g_max) * num::simd::exp<P>(red_exponent);

  return c.rate_factor * (ox - red);
}

// advance_gap() on a pack: masked RK2 sub-stepping. Finished lanes freeze
// (their gap/remaining stop updating), so each lane executes exactly the
// scalar loop's arithmetic regardless of its pack neighbours.
template <typename P>
typename P::Vec advance_gap_pack(const PackCell<P>& c, typename P::Vec v,
                                 typename P::Vec g, typename P::Mask virgin,
                                 typename P::Vec dt) {
  using V = typename P::Vec;
  using M = typename P::Mask;
  const V zero = V::broadcast(0.0);
  const V half = V::broadcast(0.5);
  const V g_upper = P::select(virgin, c.g_upper_virgin, c.g_max);
  const V g_lower = c.g_min;
  const V max_move = V::broadcast(0.05) * c.g0;

  V gap = g;
  V remaining = dt;
  M active = P::gt(remaining, zero);
  for (int guard = 0; guard < 100000 && active.any(); ++guard) {
    const V rate = gap_rate_pack<P>(c, v, gap, virgin);
    // rate == 0 lanes stop before stepping (mirrors the scalar break).
    active = active & !(P::le(rate, zero) & P::ge(rate, zero));
    const V h = P::min(remaining, max_move / P::abs(rate));
    const V g_half = P::min(P::max(gap + half * h * rate, g_lower), g_upper);
    const V rate_half = gap_rate_pack<P>(c, v, g_half, virgin);
    const V g_next = P::min(P::max(gap + h * rate_half, g_lower), g_upper);
    const V rem_next = remaining - h;
    gap = P::select(active, g_next, gap);
    remaining = P::select(active, rem_next, remaining);
    const M pinned = (P::le(gap, g_lower) & P::lt(rate_half, zero)) |
                     (P::ge(gap, g_upper) & P::gt(rate_half, zero));
    active = active & !pinned & P::gt(remaining, zero);
  }
  return gap;
}

}  // namespace

void CellBatch::prepare_scratch() {
  const std::size_t n = size();
  VecScratch& s = scratch_;
  for (std::vector<double>* field :
       {&s.i0, &s.g0, &s.v0, &s.r_leak, &s.g_min, &s.g_max, &s.g_ref, &s.k0, &s.ea_ox,
        &s.ea_red, &s.dea_form, &s.axi, &s.bxi, &s.t_ambient, &s.r_th, &s.t_max_rise,
        &s.g_upper_virgin, &s.r_series, &s.v_wl, &s.acc_vt0, &s.acc_beta,
        &s.acc_lambda, &s.mir_vt0, &s.mir_beta, &s.is_reset, &s.is_mirror, &s.sign}) {
    field->resize(n);
  }
  for (std::size_t l = 0; l < n; ++l) {
    const OxramParams& p = params_[l];
    const StackConfig& st = stacks_[l];
    const LaneControl& c = control_[l];
    s.i0[l] = p.i0;
    s.g0[l] = p.g0;
    s.v0[l] = p.v0;
    s.r_leak[l] = p.r_leak;
    s.g_min[l] = p.g_min;
    s.g_max[l] = p.g_max;
    s.g_ref[l] = p.g_ref;
    s.k0[l] = p.k0;
    s.ea_ox[l] = p.ea_ox;
    s.ea_red[l] = p.ea_red;
    s.dea_form[l] = p.dea_form;
    s.axi[l] = p.alpha * p.xi;
    s.bxi[l] = (1.0 - p.alpha) * p.xi;
    s.t_ambient[l] = p.t_ambient;
    s.r_th[l] = p.r_th;
    s.t_max_rise[l] = p.t_max_rise;
    s.g_upper_virgin[l] = std::max(p.g_virgin, p.g_max);
    s.r_series[l] = st.r_series;
    s.v_wl[l] = c.v_wl;
    s.acc_vt0[l] = st.access.vt0;
    s.acc_beta[l] = st.access.beta();
    s.acc_lambda[l] = st.access.lambda;
    s.mir_vt0[l] = st.mirror.vt0;
    s.mir_beta[l] = st.mirror.beta();
    const bool reset = c.polarity == Polarity::kReset;
    s.is_reset[l] = reset ? 1.0 : 0.0;
    s.is_mirror[l] = (st.bl_through_mirror && reset) ? 1.0 : 0.0;
    s.sign[l] = reset ? -1.0 : 1.0;
  }
}

template <typename P>
void CellBatch::step_pack(const std::size_t* lanes, std::size_t count) {
  using V = typename P::Vec;
  using M = typename P::Mask;
  constexpr int W = num::simd::kPackWidth;

  // Tail packs replicate the last real lane: pack arithmetic is element-wise
  // so padding cannot perturb real lanes, and the scalar side effects below
  // loop over the real count only.
  std::size_t idx[W];
  for (int k = 0; k < W; ++k) {
    idx[k] = lanes[std::min<std::size_t>(static_cast<std::size_t>(k), count - 1)];
  }

  auto gather = [&](const std::vector<double>& a) {
    double buf[W];
    for (int k = 0; k < W; ++k) buf[k] = a[idx[k]];
    return V::load(buf);
  };
  auto mask_of = [&](const std::vector<double>& a) {
    return P::gt(gather(a), V::broadcast(0.5));
  };

  PackCell<P> cell;
  cell.i0 = gather(scratch_.i0);
  cell.g0 = gather(scratch_.g0);
  cell.v0 = gather(scratch_.v0);
  cell.r_leak = gather(scratch_.r_leak);
  cell.g_min = gather(scratch_.g_min);
  cell.g_max = gather(scratch_.g_max);
  cell.g_ref = gather(scratch_.g_ref);
  cell.k0 = gather(scratch_.k0);
  cell.ea_ox = gather(scratch_.ea_ox);
  cell.ea_red = gather(scratch_.ea_red);
  cell.dea_form = gather(scratch_.dea_form);
  cell.axi = gather(scratch_.axi);
  cell.bxi = gather(scratch_.bxi);
  cell.t_ambient = gather(scratch_.t_ambient);
  cell.r_th = gather(scratch_.r_th);
  cell.t_max_rise = gather(scratch_.t_max_rise);
  cell.g_upper_virgin = gather(scratch_.g_upper_virgin);
  cell.rate_factor = gather(rate_factor_);

  PackStack<P> stack;
  stack.r_series = gather(scratch_.r_series);
  stack.v_wl = gather(scratch_.v_wl);
  stack.acc_vt0 = gather(scratch_.acc_vt0);
  stack.acc_beta = gather(scratch_.acc_beta);
  stack.acc_lambda = gather(scratch_.acc_lambda);
  stack.mir_vt0 = gather(scratch_.mir_vt0);
  stack.mir_beta = gather(scratch_.mir_beta);
  stack.reset = mask_of(scratch_.is_reset);
  stack.mirror = mask_of(scratch_.is_mirror);

  // Per-lane drive value and vector-solver eligibility. A lane without a
  // usable warm voltage (cold start, zero-op last step, voltage cap) or
  // without positive drive goes to the scalar solver for this step.
  double vd_buf[W];
  double fb_buf[W];
  for (int k = 0; k < W; ++k) {
    const std::size_t lane = idx[k];
    vd_buf[k] = drive_value(control_[lane], control_[lane].t);
    const bool fb = vd_buf[k] <= 0.0 || warm_v_[lane] <= 0.0 ||
                    warm_v_[lane] >= detail::kStackVcellCap;
    fb_buf[k] = fb ? 1.0 : 0.0;
  }
  const V v_drive = V::load(vd_buf);

  const V zero = V::broadcast(0.0);
  const V half = V::broadcast(0.5);
  const V one = V::broadcast(1.0);
  const V two = V::broadcast(2.0);

  // ---- masked safeguarded Newton on G(x) = Ids(x) - I_cell(x) ----
  const V g = gather(gap_);
  const V a = cell.i0 * num::simd::exp<P>(zero - g / cell.g0);
  const V inv_rl = one / cell.r_leak;
  const V rel = V::broadcast(kStackSolveRelTol);
  const V abst = V::broadcast(kStackSolveAbsTol);
  // Below ~nV the root region carries sub-pA currents: treat as "stack cannot
  // conduct" and let the scalar solver make the zero-op call.
  const V tiny_v = V::broadcast(1e-9);

  V x = gather(warm_v_);
  V lo = zero;
  V hi = V::broadcast(detail::kStackVcellCap);
  M fallback = P::gt(V::load(fb_buf), half);
  M done = fallback;
  V x_out = zero;
  V i_out = zero;

  for (int iter = 0; iter < 32 && !done.all(); ++iter) {
    const V arg = P::min(P::max(x / cell.v0, V::broadcast(-60.0)), V::broadcast(60.0));
    const V e = num::simd::exp<P>(arg);
    const V ie = one / e;
    const V sh = (e - ie) * half;
    const V ch = (e + ie) * half;
    const V i = a * sh + x / cell.r_leak;
    const V gcell = a * ch / cell.v0 + inv_rl;

    // Diode-connected mirror drop and its x-derivative (mirror lanes only);
    // beta * sqrt(2i/beta) == sqrt(2*i*beta).
    const V sq = P::sqrt(two * i / stack.mir_beta);
    const V vsink = P::select(stack.mirror, stack.mir_vt0 + sq, zero);
    const V dsink = P::select(stack.mirror, gcell / (stack.mir_beta * sq), zero);

    const V ir = i * stack.r_series;
    // RESET topology: SL (drive) - access - BE - cell - TE/BL - [mirror] - gnd.
    const V nbe_r = vsink + x;
    const V vgs_r = stack.v_wl - nbe_r;
    const V vds_r = (v_drive - ir) - nbe_r;
    const V dn_r = one + dsink;
    const V dvgs_r = zero - dn_r;
    const V dvds_r = (zero - stack.r_series * gcell) - dn_r;
    // SET topology: BL (drive) - TE - cell - BE - access - SL/gnd.
    const V vds_s = (v_drive - ir) - x;
    const V dvds_s = (zero - stack.r_series * gcell) - one;

    const V vgs = P::select(stack.reset, vgs_r, stack.v_wl);
    const V vds = P::select(stack.reset, vds_r, vds_s);
    const V dvgs = P::select(stack.reset, dvgs_r, zero);
    const V dvds = P::select(stack.reset, dvds_r, dvds_s);

    // Access device, level-1 at vbs = 0 (vth == vt0 exactly).
    const V vov = vgs - stack.acc_vt0;
    const V clm = one + stack.acc_lambda * vds;
    const V q = vov * vds - half * vds * vds;
    const V hvv = half * vov * vov;
    const M tri = P::lt(vds, vov);
    V ids = P::select(tri, stack.acc_beta * q * clm, stack.acc_beta * hvv * clm);
    V gm = P::select(tri, stack.acc_beta * vds * clm, stack.acc_beta * vov * clm);
    V gds = P::select(tri,
                      stack.acc_beta * (vov - vds) * clm +
                          stack.acc_beta * q * stack.acc_lambda,
                      stack.acc_beta * hvv * stack.acc_lambda);
    const M off = P::le(vov, zero) | P::le(vds, zero);
    ids = P::select(off, zero, ids);
    gm = P::select(off, zero, gm);
    gds = P::select(off, zero, gds);

    const V resid = ids - i;
    const V slope = gm * dvgs + gds * dvds - gcell;  // strictly negative

    const M conv = P::le(P::abs(resid), P::max(rel * i, abst));
    const M newly = conv & !done;
    x_out = P::select(newly, x, x_out);
    i_out = P::select(newly, i, i_out);
    done = done | conv;

    const M live = !done;
    lo = P::select(P::gt(resid, zero) & live, x, lo);
    hi = P::select(P::le(resid, zero) & live, x, hi);
    // Bracket collapsing onto zero volts: no conduction — scalar owns it.
    const M nocond = live & P::lt(hi, tiny_v);
    fallback = fallback | nocond;
    done = done | nocond;

    V xn = x - resid / slope;
    const M ok = P::gt(xn, lo) & P::lt(xn, hi);
    xn = P::select(ok, xn, half * (lo + hi));
    x = P::select(done, x, xn);
  }
  fallback = fallback | !done;
  const V fb_flag = P::select(fallback, one, zero);

  // ---- scalar per-lane completion: fallback solves, warm state, energy,
  // termination, step policy ----
  double cur[W], vsg[W], virg[W];
  std::uint64_t fallbacks = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t lane = idx[k];
    LaneControl& c = control_[lane];
    double current, v_cell;
    if (fb_flag.lane(static_cast<int>(k)) > 0.5) {
      const StackOperatingPoint sp =
          solve_stack_warm(params_[lane], gap_[lane], stacks_[lane], c.polarity,
                           vd_buf[k], c.v_wl, warm_i_[lane]);
      current = sp.current;
      v_cell = sp.v_cell;
      ++fallbacks;
    } else {
      current = i_out.lane(static_cast<int>(k));
      v_cell = x_out.lane(static_cast<int>(k));
    }
    warm_i_[lane] = current;
    warm_v_[lane] = current > 0.0 ? v_cell : 0.0;
    cur[k] = current;
    vsg[k] = scratch_.sign[lane] * v_cell;
    virg[k] = c.virgin ? 1.0 : 0.0;
    update_sample(lane, vd_buf[k], current, v_cell);
  }
  for (std::size_t k = count; k < W; ++k) {
    cur[k] = cur[count - 1];
    vsg[k] = vsg[count - 1];
    virg[k] = virg[count - 1];
  }
  if (fallbacks > 0) SimdMetrics::get().fallback_solves.add(fallbacks);

  // ---- step-size policy: one pack rate evaluation, scalar bound logic ----
  const V v_signed = V::load(vsg);
  const M virgin_m = P::gt(V::load(virg), half);
  const V rate = gap_rate_pack<P>(cell, v_signed, g, virgin_m);
  double dt_buf[W];
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t lane = idx[k];
    const LaneControl& c = control_[lane];
    const StepPolicy policy = step_policy(c, results_[lane], cur[k]);
    const double dt_rec = recommended_dt_given_rate(
        params_[lane], gap_[lane], c.virgin, rate.lane(static_cast<int>(k)),
        policy.gap_fraction);
    dt_buf[k] = apply_corners(c, std::min(policy.dt_cap, dt_rec));
  }
  for (std::size_t k = count; k < W; ++k) dt_buf[k] = dt_buf[count - 1];

  // ---- gap integration and time advance ----
  const V g_new = advance_gap_pack<P>(cell, v_signed, g, virgin_m, V::load(dt_buf));
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t lane = idx[k];
    LaneControl& c = control_[lane];
    gap_[lane] = g_new.lane(static_cast<int>(k));
    if (c.virgin && gap_[lane] < params_[lane].g_max * 0.98) c.virgin = false;
    c.t += dt_buf[k];
  }
}

template <typename P>
std::uint64_t CellBatch::run_span_vector(std::size_t begin, std::size_t end) {
  SimdMetrics& metrics = SimdMetrics::get();

  // Active-lane compaction: each round visits only the lanes still
  // programming, four at a time; a completed lane retires in place and is
  // never visited again, so late rounds iterate only the stragglers (the
  // deep levels).
  std::vector<std::size_t> active(end - begin);
  std::iota(active.begin(), active.end(), begin);
  std::vector<std::size_t> stepping;
  stepping.reserve(active.size());
  std::uint64_t steps = 0;
  std::uint64_t retired = 0;
  while (!active.empty()) {
    stepping.clear();
    for (const std::size_t lane : active) {
      if (control_[lane].t < control_[lane].t_end - 1e-15) {
        stepping.push_back(lane);
      } else {
        finalize_lane(lane);
        ++retired;
      }
    }
    for (std::size_t p = 0; p < stepping.size(); p += num::simd::kPackWidth) {
      const std::size_t m =
          std::min<std::size_t>(num::simd::kPackWidth, stepping.size() - p);
      step_pack<P>(stepping.data() + p, m);
      steps += m;
    }
    metrics.lanes_active.set(static_cast<double>(stepping.size()));
    active.swap(stepping);
  }
  metrics.lanes_retired.add(retired);
  return steps;
}

std::uint64_t CellBatch::run_span(std::size_t begin, std::size_t end,
                                  num::simd::Backend backend) {
#if OXMLC_SIMD_HAS_AVX2
  if (backend == num::simd::Backend::kAvx2) {
    return run_span_vector<num::simd::PackAvx>(begin, end);
  }
#else
  static_cast<void>(backend);
#endif
  // kScalar — and kAvx2 in a binary without the AVX2 instantiation, which is
  // indistinguishable anyway: the two packs are bitwise identical.
  return run_span_vector<num::simd::PackScalar>(begin, end);
}

}  // namespace oxmlc::oxram

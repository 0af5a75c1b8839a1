#include "oxram/device.hpp"

#include "util/error.hpp"

namespace oxmlc::oxram {

OxramDevice::OxramDevice(std::string name, int te, int be, const OxramParams& params,
                         double initial_gap, bool virgin)
    : Device(std::move(name)), params_(params), gap_(initial_gap), virgin_(virgin) {
  OXMLC_CHECK(initial_gap >= 0.0, "oxram " + name_ + ": gap must be non-negative");
  nodes_ = {te, be};
}

double OxramDevice::terminal_voltage(std::span<const double> x) const {
  auto volt = [&](int n) { return n < 0 ? 0.0 : x[static_cast<std::size_t>(n)]; };
  return volt(nodes_[0]) - volt(nodes_[1]);
}

void OxramDevice::stamp(const spice::StampContext& ctx, spice::Stamper& stamper) {
  const int te = nodes_[0], be = nodes_[1];
  const double vcell = v(ctx, te) - v(ctx, be);
  const double i = cell_current(params_, vcell, gap_);
  const double gd = cell_conductance(params_, vcell, gap_);

  stamper.residual(te, i);
  stamper.residual(be, -i);
  stamper.jacobian(te, te, gd);
  stamper.jacobian(te, be, -gd);
  stamper.jacobian(be, te, -gd);
  stamper.jacobian(be, be, gd);
}

void OxramDevice::commit_step(const spice::StampContext& ctx) {
  if (ctx.dt <= 0.0) return;
  const double vcell = terminal_voltage(ctx.x);
  const double new_gap = advance_gap(params_, vcell, gap_, virgin_, ctx.dt);
  if (virgin_ && new_gap < params_.g_max * 0.98) {
    virgin_ = false;  // forming completed; barrier permanently removed
  }
  gap_ = new_gap;
}

double OxramDevice::recommend_dt(const spice::StampContext& ctx) const {
  const double vcell = terminal_voltage(ctx.x);
  return recommended_dt(params_, vcell, gap_, virgin_, 1.0);
}

double OxramDevice::current(std::span<const double> x) const {
  return cell_current(params_, terminal_voltage(x), gap_);
}

}  // namespace oxmlc::oxram

#include "array/bank_write_path.hpp"

#include <algorithm>
#include <string>

#include "devices/passive.hpp"
#include "devices/sources.hpp"
#include "spice/analyze/partition.hpp"
#include "spice/mna.hpp"
#include "util/error.hpp"

namespace oxmlc::array {
namespace {

// Distributed line along the selected row with one tap per column: the shared
// SL/WL wiring every column hangs off. Returns the tap nodes (all border).
std::vector<int> build_tapped_line(spice::Circuit& c, const std::string& prefix,
                                   int from, const LineParasitics& line,
                                   std::size_t taps) {
  std::vector<int> nodes;
  nodes.reserve(taps);
  const double r_seg = line.total_resistance / static_cast<double>(taps);
  const double c_seg = line.total_capacitance / static_cast<double>(taps);
  int previous = from;
  for (std::size_t j = 0; j < taps; ++j) {
    const int tap = c.node(prefix + "_" + std::to_string(j));
    c.add<dev::Resistor>(prefix + "_r" + std::to_string(j), previous, tap,
                         std::max(r_seg, 1e-3));
    if (c_seg > 0.0) {
      c.add<dev::Capacitor>(prefix + "_c" + std::to_string(j), tap,
                            spice::kGround, c_seg);
    }
    nodes.push_back(tap);
    previous = tap;
  }
  return nodes;
}

LineParasitics scale_line(const LineParasitics& full, std::size_t cells,
                          std::size_t reference_cells, std::size_t segments) {
  LineParasitics out = full;
  const double scale =
      static_cast<double>(cells) / static_cast<double>(std::max<std::size_t>(
                                       reference_cells, 1));
  out.total_resistance *= scale;
  out.total_capacitance *= scale;
  out.segments = segments;
  return out;
}

}  // namespace

BankWritePath::BankWritePath(const BankWritePathConfig& config)
    : config_(config) {
  OXMLC_CHECK(config.columns > 0, "BankWritePath: need at least one column");
  auto& c = circuit_;
  std::vector<int> border;

  // Comparator supply, only if some column has a comparator (else OXA004).
  int vdd = spice::kGround;
  const std::size_t compared = std::min(config.columns, config.irefs.size());
  if (std::any_of(config.irefs.begin(), config.irefs.begin() + compared,
                  [](double iref) { return iref > 0.0; })) {
    vdd = c.node("vdd");
    c.add<dev::VoltageSource>("Vdd", vdd, spice::kGround, config.termination.vdd);
    border.push_back(vdd);
  }

  // --- shared SL driver: one stoppable RST pulse feeds the whole word ---
  spice::PulseSpec spec;
  spec.v1 = 0.0;
  spec.v2 = config.v_rst;
  spec.delay = 0.0;
  spec.rise = config.pulse_rise;
  spec.width = config.pulse_width;
  spec.fall = config.pulse_fall;
  sl_pulse_ = std::make_shared<spice::StoppablePulse>(spec);
  const int sl_drv = c.node("sl_drv");
  c.add<dev::VoltageSource>("Vsl", sl_drv, spice::kGround, sl_pulse_);
  const int sl_rdrv = c.node("sl_rdrv");
  c.add<dev::Resistor>("Rsl_drv", sl_drv, sl_rdrv, config.r_driver);
  border.push_back(sl_drv);
  border.push_back(sl_rdrv);

  // --- shared WL driver, DC high for the whole operation ---
  const int wl_drv = c.node("wl_drv");
  c.add<dev::VoltageSource>("Vwl", wl_drv, spice::kGround, config.v_wl);
  border.push_back(wl_drv);

  // Row wiring: horizontal SL and WL ladders, one tap per column. These taps
  // are the only electrical coupling between columns — the BBD border.
  const std::vector<int> sl_taps = build_tapped_line(
      c, "slb", sl_rdrv,
      scale_line(config.sl, config.columns, config.reference_cols,
                 config.columns),
      config.columns);
  const std::vector<int> wl_taps = build_tapped_line(
      c, "wlb", wl_drv,
      scale_line(config.wl, config.columns, config.reference_cols,
                 config.columns),
      config.columns);
  border.insert(border.end(), sl_taps.begin(), sl_taps.end());
  border.insert(border.end(), wl_taps.begin(), wl_taps.end());

  // Per-column vertical stack: everything below the taps is column-private.
  const std::size_t bl_segments =
      config.bl_segments > 0
          ? config.bl_segments
          : std::max<std::size_t>(2, config.rows / 4);
  const LineParasitics bl = scale_line(config.bl, config.rows,
                                       config.reference_rows, bl_segments);
  cells_.reserve(config.columns);
  for (std::size_t j = 0; j < config.columns; ++j) {
    const std::string col = std::to_string(j);
    const int be = c.node("be" + col);
    node_be_.push_back(be);
    c.add<dev::Mosfet>("Macc" + col, sl_taps[j], wl_taps[j], be, spice::kGround,
                       config.access);

    const int bl_cell = c.node("blc" + col);
    node_bl_cell_.push_back(bl_cell);
    cells_.push_back(
        &c.add<oxram::OxramDevice>("cell" + col, bl_cell, be, config.cell, config.cell.g_min));

    const int bl_far = build_rc_line(c, "bl" + col, bl_cell, bl);

    // Column-select switch; its gate driver is the per-column stop target.
    const int bl_mux = c.node("mux" + col);
    const int csel = c.node("csel" + col);
    c.add<dev::Mosfet>("Msel" + col, bl_far, csel, bl_mux, spice::kGround,
                       config.column_select);
    spice::PulseSpec sel_spec;
    sel_spec.v1 = 0.0;
    sel_spec.v2 = config.v_csel;
    sel_spec.delay = 0.0;
    sel_spec.rise = 1e-9;
    sel_spec.width = config.t_stop;  // high for the whole op unless stopped
    sel_spec.fall = 5e-9;
    auto csel_pulse = std::make_shared<spice::StoppablePulse>(sel_spec);
    csel_pulses_.push_back(csel_pulse);
    c.add<dev::VoltageSource>("Vcsel" + col, csel, spice::kGround, csel_pulse);

    const double iref = j < config.irefs.size() ? config.irefs[j] : 0.0;
    if (iref > 0.0) {
      terminations_.push_back(build_termination_circuit(
          c, "term" + col, bl_mux, vdd, iref, config.termination));
    } else {
      c.add<dev::Resistor>("Rgnd" + col, bl_mux, spice::kGround, 10.0);
      terminations_.push_back({});
    }
  }

  c.finalize();
  // Branch currents of the border-attached sources (Vdd, Vsl, Vwl) land on
  // the border automatically: derive_partition folds branch-only components
  // into it.
  partition_ = spice::analyze::derive_partition(circuit_, border);
}

BankWritePathResult BankWritePath::run() {
  spice::MnaSystem system(circuit_);
  if (config_.hierarchical) {
    system.set_partition(partition_);
  }

  std::vector<spice::Probe> probes;
  for (std::size_t j = 0; j < config_.columns; ++j) {
    oxram::OxramDevice* cell = cells_[j];
    probes.push_back({"icell" + std::to_string(j),
                      [cell](double, std::span<const double> x) {
                        // RST current flows BE -> TE; report its magnitude.
                        return -cell->current(x);
                      }});
    probes.push_back({"gap" + std::to_string(j),
                      [cell](double, std::span<const double>) {
                        return cell->gap();
                      }});
  }
  probes.push_back({"vsl", [this](double t, std::span<const double>) {
                      return sl_pulse_->value(t);
                    }});

  // Shared early-stop bookkeeping: once the LAST comparator has fired and the
  // commanded select-gate edges have settled, the tail is pure wall-clock.
  struct StopState {
    std::size_t comparators = 0;
    std::size_t fired = 0;
    double stop_at = 0.0;
  };
  auto stop_state = std::make_shared<StopState>();

  std::vector<spice::TransientEvent> events;
  {
    const double vdd = config_.termination.vdd;
    for (std::size_t j = 0; j < config_.columns; ++j) {
      if (terminations_[j].out < 0) continue;  // column has no comparator
      ++stop_state->comparators;
      spice::TransientEvent ev;
      ev.name = "termination" + std::to_string(j);
      const int out_node = terminations_[j].out;
      ev.value = [out_node](double, std::span<const double> x) {
        return out_node < 0 ? 0.0 : x[static_cast<std::size_t>(out_node)];
      };
      ev.threshold = 0.5 * vdd;
      ev.direction = spice::EventDirection::kFalling;
      ev.resolution = 2e-9;
      const double logic_delay = config_.logic_delay;
      const double settle = config_.stop_after_terminated.value_or(0.0);
      auto pulse = csel_pulses_[j];
      ev.on_fire = [pulse, logic_delay, settle, stop_state](
                       double t, std::span<const double>) {
        pulse->stop(t + logic_delay);
        ++stop_state->fired;
        // The settle window must outlast the commanded csel fall (5 ns).
        stop_state->stop_at =
            std::max(stop_state->stop_at, t + logic_delay + settle);
      };
      events.push_back(std::move(ev));
    }
  }

  spice::TransientOptions options;
  options.t_stop = config_.t_stop;
  options.dt_max = 20e-9;
  options.newton.max_iterations = 200;
  if (config_.stop_after_terminated && stop_state->comparators > 0) {
    options.stop_when = [stop_state](double t) {
      return stop_state->fired == stop_state->comparators &&
             t >= stop_state->stop_at;
    };
  }

  BankWritePathResult result;
  result.transient = spice::run_transient(system, options, probes, std::move(events));
  result.unknowns = circuit_.unknown_count();
  result.blocks = partition_.blocks;
  for (std::int32_t b : partition_.block_of) {
    if (b == num::BlockPartition::kBorder) ++result.border_size;
  }

  result.columns.resize(config_.columns);
  for (std::size_t j = 0; j < config_.columns; ++j) {
    BankColumnResult& col = result.columns[j];
    col.final_gap = cells_[j]->gap();
    col.final_resistance = cells_[j]->resistance(0.3);
  }
  for (const auto& fired : result.transient.fired_events) {
    for (std::size_t j = 0; j < config_.columns; ++j) {
      if (fired.name == "termination" + std::to_string(j)) {
        result.columns[j].terminated = true;
        result.columns[j].t_terminate = fired.time;
      }
    }
  }

  // SL-driver energy: V_sl times the total word current.
  const auto& times = result.transient.times;
  const auto& vsl = result.transient.probe_values.back();
  std::vector<double> power(times.size(), 0.0);
  for (std::size_t j = 0; j < config_.columns; ++j) {
    const auto& icell =
        result.transient.probe_values[BankWritePathResult::probe_icell(j)];
    for (std::size_t k = 0; k < times.size(); ++k) power[k] += vsl[k] * icell[k];
  }
  result.energy_source = spice::TransientResult::integrate(times, power);
  return result;
}

}  // namespace oxmlc::array

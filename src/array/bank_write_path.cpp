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
    c.add<dev::VoltageSource>("Vdd", vdd, spice::kGround, dev::tech130hv::kVdd);
    border.push_back(vdd);
  }

  // --- shared SL driver: one RST pulse feeds the whole word ---
  const SlDriver sl_driver = build_sl_driver(c, config.pulse_width, kDriverResistance);
  sl_pulse_ = sl_driver.pulse;
  border.push_back(sl_driver.source);
  border.push_back(sl_driver.out);

  // --- shared WL driver, DC high for the whole operation ---
  const int wl_drv = c.node("wl_drv");
  c.add<dev::VoltageSource>("Vwl", wl_drv, spice::kGround, oxram::kResetWlVoltage);
  border.push_back(wl_drv);

  // Row wiring: horizontal SL and WL ladders, one tap per column. These taps
  // are the only electrical coupling between columns — the BBD border.
  const std::vector<int> sl_taps =
      build_rc_line(c, "slb", sl_driver.out,
                    scale_line(LineParasitics::paper_source_line(), config.columns,
                               kReferenceCols, config.columns));
  const std::vector<int> wl_taps =
      build_rc_line(c, "wlb", wl_drv,
                    scale_line(LineParasitics::paper_word_line(), config.columns,
                               kReferenceCols, config.columns));
  border.insert(border.end(), sl_taps.begin(), sl_taps.end());
  border.insert(border.end(), wl_taps.begin(), wl_taps.end());

  // Per-column vertical stack: everything below the taps is column-private.
  const std::size_t bl_segments =
      config.bl_segments > 0
          ? config.bl_segments
          : std::max<std::size_t>(2, config.rows / 4);
  const LineParasitics bl = scale_line(LineParasitics::paper_bit_line(), config.rows,
                                       kReferenceRows, bl_segments);
  cells_.reserve(config.columns);
  for (std::size_t j = 0; j < config.columns; ++j) {
    const std::string col = std::to_string(j);
    const CellColumn column = build_cell_column(c, col, sl_taps[j], wl_taps[j],
                                                config.cell, config.cell.g_min, bl);
    cells_.push_back(column.cell);

    // Column-select switch; its gate driver is the per-column stop target.
    const int bl_mux = c.node("mux" + col);
    const int csel = c.node("csel" + col);
    c.add<dev::Mosfet>("Msel" + col, column.bl_end, csel, bl_mux, spice::kGround,
                       column_select_nmos());
    csel_pulses_.push_back(
        build_stop_gate(c, "csel" + col, csel, kSelectGateVoltage, config.t_stop));

    const double iref = j < config.irefs.size() ? config.irefs[j] : 0.0;
    if (iref > 0.0) {
      terminations_.push_back(
          build_termination_circuit(c, "term" + col, bl_mux, vdd, iref));
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
  std::vector<std::size_t> icell_probes;
  for (std::size_t j = 0; j < config_.columns; ++j) {
    oxram::OxramDevice* cell = cells_[j];
    icell_probes.push_back(probes.size());
    probes.push_back(cell_current_probe("icell" + std::to_string(j), *cell));
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

  BankWritePathResult result;
  result.columns.resize(config_.columns);
  std::vector<spice::TransientEvent> events;
  for (std::size_t j = 0; j < config_.columns; ++j) {
    if (terminations_[j].out < 0) continue;  // column has no comparator
    ++stop_state->comparators;
    spice::TransientEvent event = comparator_stop_event(
        "stop" + std::to_string(j), terminations_[j], csel_pulses_[j], result.columns[j]);
    const double settle = config_.stop_after_terminated.value_or(0.0);
    event.on_fire = [stop = std::move(event.on_fire), settle, stop_state](
                        double t, std::span<const double> x) {
      stop(t, x);
      ++stop_state->fired;
      // The settle window must outlast the commanded csel fall (5 ns).
      stop_state->stop_at = std::max(stop_state->stop_at, t + kLogicDelay + settle);
    };
    events.push_back(std::move(event));
  }

  spice::TransientOptions options = write_transient_options(config_.t_stop);
  if (config_.stop_after_terminated && stop_state->comparators > 0) {
    options.stop_when = [stop_state](double t) {
      return stop_state->fired == stop_state->comparators &&
             t >= stop_state->stop_at;
    };
  }

  result.transient = spice::run_transient(system, options, probes, std::move(events));
  result.unknowns = circuit_.unknown_count();
  result.blocks = partition_.blocks;
  for (std::int32_t b : partition_.block_of) {
    if (b == num::BlockPartition::kBorder) ++result.border_size;
  }
  for (std::size_t j = 0; j < config_.columns; ++j) {
    record_final_state(result.columns[j], *cells_[j]);
  }
  result.energy_source =
      sl_source_energy(result.transient, probes.size() - 1, icell_probes);
  return result;
}

}  // namespace oxmlc::array

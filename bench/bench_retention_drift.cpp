// EXT-RET: retention margin-closure sweep.
//
// Not a paper figure — the paper freezes each state at termination. This
// harness runs a small Monte-Carlo retention sweep of the reliability
// subsystem built on top of it (verify-off vs relaxation-aware verify),
// showing the worst-case window closing over decades and the fraction the
// verify buys back. CSV + telemetry sidecar land in bench_results/ like
// every other harness; the CI retention smoke asserts on the CLI's
// BENCH_retention.json artifact.
#include <iostream>

#include "bench_common.hpp"
#include "mlc/retention.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace oxmlc;

  bench::print_header(
      "EXT-RET", "retention drift + relaxation-aware verify",
      "n/a (extension): log-time drift after arXiv:1810.10528, verify after arXiv:2301.08516");

  const std::size_t trials = bench::size_flag(argc, argv, "--trials", 24, 1);
  std::cout << "retention sweep (4 bits/cell, " << trials << " trials/level):\n";
  mlc::RetentionConfig config = mlc::RetentionConfig::paper_default(4, trials);
  config.verify_max_passes = 3;
  const mlc::RetentionComparison comparison = mlc::run_retention_comparison(config);
  const mlc::RetentionReport& off = comparison.verify_off;
  const mlc::RetentionReport& on = comparison.verify_on;

  Table sweep_table({"t (s)", "window off (kOhm)", "BER off", "window on (kOhm)", "BER on"});
  for (std::size_t k = 0; k < off.points.size(); ++k) {
    sweep_table.add_row(
        {format_si(off.points[k].t, "s", 3),
         format_scaled(off.points[k].margins.worst_case_margin, 1e3, 3),
         format_scaled(off.points[k].ber.ber, 1.0, 4),
         format_scaled(on.points[k].margins.worst_case_margin, 1e3, 3),
         format_scaled(on.points[k].ber.ber, 1.0, 4)});
  }
  sweep_table.print(std::cout);
  // Quote recovery where the fast relaxation dominates the loss; the slow
  // per-cell activation is not filterable, so late decades converge again.
  std::size_t fast_idx = off.points.size() - 1;
  for (std::size_t k = 0; k < off.points.size(); ++k) {
    if (off.points[k].t <= 1.0 + 1e-12) fast_idx = k;
  }
  std::cout << "verify re-programmed " << on.verify_reprogrammed
            << " cells; recovered fraction at " << format_si(off.points[fast_idx].t, "s", 3)
            << ": " << format_scaled(mlc::recovered_window_fraction(comparison, fast_idx), 1.0, 3)
            << "\n";

  Table csv({"kind", "x", "off", "on", "ratio"});
  for (std::size_t k = 0; k < off.points.size(); ++k) {
    const double w_off = off.points[k].margins.worst_case_margin;
    const double w_on = on.points[k].margins.worst_case_margin;
    csv.add_row({"window_ohm", std::to_string(off.points[k].t), std::to_string(w_off),
                 std::to_string(w_on), std::to_string(w_off == 0.0 ? 0.0 : w_on / w_off)});
  }
  bench::save_csv(csv, "retention_drift.csv");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oxmlc::bench::guard([&] { return run(argc, argv); });
}

// Retention study: how long does a freshly programmed QLC page stay
// readable, and how much of the post-program relaxation loss does a
// relaxation-aware verify (wait tau_relax, re-sense, re-terminate the tail)
// buy back?
//
// Runs the Monte-Carlo drift sweep of mlc/retention.hpp, which observes each
// programmed word both verify-off and verify-on, and prints the worst-case
// inter-level window and raw decode BER at each observation decade, plus the
// recovered fraction of the drift-lost window (the subsystem's acceptance
// metric).
//
// Exits 1 unless the verify-on window is no narrower than the verify-off
// window at every observation time up to 1 s, and the recovered fraction at
// 1 s is positive.
//
//   ./retention_study [trials-per-level] [bits]
#include <iostream>

#include "mlc/retention.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace oxmlc;

  const std::optional<std::uint64_t> trials =
      argc > 1 ? util::parse_unsigned(argv[1]) : 24;
  const std::optional<std::uint64_t> bits = argc > 2 ? util::parse_unsigned(argv[2]) : 4;
  if (!trials || !bits) {
    std::cerr << "usage: retention_study [trials-per-level] [bits]\n";
    return 2;
  }

  std::cout << "retention sweep: " << *bits << " bits/cell, " << *trials
            << " trials/level, decade ladder 1 ms .. 10^7 s\n\n";

  mlc::RetentionConfig config = mlc::RetentionConfig::paper_default(*bits, *trials);
  config.verify_max_passes = 3;
  const mlc::RetentionComparison comparison = mlc::run_retention_comparison(config);
  const mlc::RetentionReport& off = comparison.verify_off;
  const mlc::RetentionReport& on = comparison.verify_on;

  std::cout << "as-programmed worst-case window: "
            << format_scaled(off.initial_margins.worst_case_margin, 1e3, 3) << " kOhm ("
            << format_scaled(off.initial_ber.ber * 100.0, 1.0, 3) << " % raw BER)\n\n";

  Table t({"t after program", "window off (kOhm)", "BER off (%)", "window on (kOhm)",
           "BER on (%)"});
  for (std::size_t k = 0; k < off.points.size(); ++k) {
    t.add_row({format_si(off.points[k].t, "s", 3),
               format_scaled(off.points[k].margins.worst_case_margin, 1e3, 3),
               format_scaled(off.points[k].ber.ber * 100.0, 1.0, 3),
               format_scaled(on.points[k].margins.worst_case_margin, 1e3, 3),
               format_scaled(on.points[k].ber.ber * 100.0, 1.0, 3)});
  }
  t.print(std::cout);

  std::cout << "\nverify: " << on.verify_reprogrammed << " cells re-terminated, "
            << on.verify_unrecovered << " still out of band after "
            << on.verify_max_passes << " passes\n";
  // Quote the recovery where the fast relaxation dominates (about 1 s): the
  // slow retention component is a per-cell activation no verify can filter,
  // so the late decades converge toward the unverified branch again.
  bool never_narrower = true;
  double recovered = 0.0;  // at the last time up to 1 s
  for (std::size_t k = 0; k < off.points.size(); ++k) {
    if (off.points[k].t > 1.0 + 1e-12) break;
    never_narrower = never_narrower && on.points[k].margins.worst_case_margin >=
                                           off.points[k].margins.worst_case_margin;
    recovered = mlc::recovered_window_fraction(comparison, k);
    std::cout << "recovered fraction of lost window at " << format_si(off.points[k].t, "s", 3)
              << ": " << format_scaled(recovered, 1.0, 3) << "\n";
  }
  std::cout << "verify-on window no narrower up to 1 s: " << (never_narrower ? "yes" : "NO")
            << "; recovered fraction at 1 s positive: " << (recovered > 0.0 ? "yes" : "NO")
            << "\n";
  return never_narrower && recovered > 0.0 ? 0 : 1;
}

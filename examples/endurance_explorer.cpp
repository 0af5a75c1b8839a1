// Endurance explorer: cycles one QLC word through random levels with the
// full reliability stack in the loop — per-event relaxation and log-time
// retention drift (oxram/drift.hpp), read disturb on every sense, endurance
// window compression past the wear onset, a relaxation-aware program verify
// after every write, and a scrub pass repairing each dwell's drift.
//
// Each cycle: write a random word (verify-on), dwell, re-read (this is where
// drift shows up as decode errors), scrub. The run reports decode fidelity
// before/after scrub per epoch and the switching-window compression that the
// accumulated cycles cost. The wear onset is pulled down from the technology
// value so the effect is visible within an example-sized run.
//
// Exits 1 unless, in every epoch, the scrub leaves fewer decode errors than
// the dwells caused (or none), and the window loss never shrinks from one
// epoch to the next.
//
//   ./endurance_explorer [cycles] [dwell-seconds]
#include <iostream>
#include <vector>

#include "mlc/controller.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace oxmlc;

  const std::optional<std::uint64_t> cycles =
      argc > 1 ? util::parse_unsigned(argv[1]) : 120;
  // s between write and re-read: ~1 day of retention by default
  const std::optional<double> dwell = argc > 2 ? util::parse_real(argv[2]) : 1e5;
  if (!cycles || !dwell) {
    std::cerr << "usage: endurance_explorer [cycles] [dwell-seconds]\n";
    return 2;
  }
  std::cout << "cycling one 8-cell QLC word through " << *cycles
            << " random writes, dwell " << format_si(*dwell, "s", 3)
            << " per cycle, verify + scrub on\n\n";

  const mlc::QlcConfig config = mlc::QlcConfig::paper_default(4, 17);
  const mlc::QlcProgrammer programmer(config);

  mlc::ReliabilityConfig rel;
  rel.endurance.onset_cycles = 20;     // technology value is ~1e9 writes; pulled
  rel.endurance.loss_per_decade = 0.08;  // down so an example-sized run shows wear
  mlc::MemoryController controller(programmer, 1, 8, 0xE77D, rel, 2);
  const oxram::FastCell& cell00 = controller.array().at(0, 0);

  const double fresh_window = cell00.params().g_max - cell00.params().g_min;

  Rng rng(0xE77D);
  RunningStats energy, latency;
  std::size_t verify_reprogrammed = 0;
  std::size_t epoch_errors_raw = 0;    // decode errors at re-read, before scrub
  std::size_t epoch_errors_fixed = 0;  // still wrong after the scrub pass
  std::size_t epoch_scrubbed = 0;
  bool scrub_repairs = true;  // every epoch: fewer errors after scrub than raw, or none
  bool loss_grows = true;     // the window loss never shrinks
  double last_loss = 0.0;

  const std::size_t epochs = 6;
  const std::size_t epoch_len = (*cycles + epochs - 1) / epochs;
  Table report({"cycles", "raw errors", "scrubbed cells", "errors after scrub",
                "window loss (%)"});

  for (std::size_t cycle = 1; cycle <= *cycles; ++cycle) {
    std::vector<std::size_t> levels(controller.cells_per_word());
    for (std::size_t& level : levels) level = rng.uniform_index(16);
    const mlc::WordWriteStats stats = controller.write_word_levels(0, levels);
    energy.add(stats.energy);
    latency.add(stats.latency);
    verify_reprogrammed += stats.reprogrammed;

    controller.advance(*dwell);
    const std::vector<std::size_t> read = controller.read_word_levels(0);
    for (std::size_t col = 0; col < levels.size(); ++col) {
      epoch_errors_raw += read[col] != levels[col];
    }

    const mlc::ScrubStats scrub = controller.scrub_word(0);
    epoch_scrubbed += scrub.cells_scrubbed;
    const std::vector<std::size_t> after = controller.read_word_levels(0);
    for (std::size_t col = 0; col < levels.size(); ++col) {
      epoch_errors_fixed += after[col] != levels[col];
    }

    if (cycle % epoch_len == 0 || cycle == *cycles) {
      const double window = cell00.params().g_max - cell00.params().g_min;
      const double loss = 1.0 - window / fresh_window;
      scrub_repairs = scrub_repairs &&
                      (epoch_errors_fixed == 0 || epoch_errors_fixed < epoch_errors_raw);
      loss_grows = loss_grows && loss >= last_loss;
      last_loss = loss;
      report.add_row({std::to_string(cycle), std::to_string(epoch_errors_raw),
                      std::to_string(epoch_scrubbed), std::to_string(epoch_errors_fixed),
                      format_scaled(100.0 * loss, 1.0, 1)});
      epoch_errors_raw = epoch_errors_fixed = epoch_scrubbed = 0;
    }
  }
  report.print(std::cout);

  Table summary({"metric", "value"});
  summary.add_row({"write cycles", std::to_string(*cycles)});
  summary.add_row({"verify re-programs", std::to_string(verify_reprogrammed)});
  summary.add_row({"mean energy / write", format_si(energy.mean(), "J", 3)});
  summary.add_row({"mean write latency (incl. verify)", format_si(latency.mean(), "s", 3)});
  summary.add_row({"reads seen by cell (0,0)", std::to_string(controller.reads(0, 0))});
  summary.add_row({"cycles seen by cell (0,0)", std::to_string(controller.cycles(0, 0))});
  summary.add_row({"scrub repairs every epoch", scrub_repairs ? "yes" : "NO"});
  summary.add_row({"window loss never shrinks", loss_grows ? "yes" : "NO"});
  std::cout << "\n";
  summary.print(std::cout);

  std::cout << "\nNote: raw errors are what a dwell of " << format_si(*dwell, "s", 3)
            << " costs an unscrubbed page; the scrub column is the refresh work\n"
               "that keeps the page readable. Window loss comes from the endurance\n"
               "model (onset pulled down to "
            << rel.endurance.onset_cycles << " cycles for visibility).\n";
  return scrub_repairs && loss_grows ? 0 : 1;
}

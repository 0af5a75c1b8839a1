#include "memsys/replay.hpp"

#include <algorithm>
#include <chrono>

#include "obs/registry.hpp"
#include "util/schema.hpp"

namespace oxmlc::memsys {

namespace {

struct MemsysMetrics {
  obs::Counter& replays = obs::registry().counter("memsys.replays");
  obs::Counter& requests_retired = obs::registry().counter("memsys.requests_retired");
  obs::Counter& reads = obs::registry().counter("memsys.reads");
  obs::Counter& writes = obs::registry().counter("memsys.writes");
  obs::Counter& row_hits = obs::registry().counter("memsys.row_hits");
  obs::Counter& row_misses = obs::registry().counter("memsys.row_misses");
  obs::Counter& row_conflicts = obs::registry().counter("memsys.row_conflicts");
  obs::Counter& scrub_commands = obs::registry().counter("memsys.scrub_commands");
  obs::Counter& wear_rotations = obs::registry().counter("memsys.wear_rotations");
  obs::Counter& word_samples = obs::registry().counter("memsys.word_samples");
  obs::Counter& mna_samples = obs::registry().counter("memsys.mna_samples");
  obs::Counter& witness_cells_scrubbed =
      obs::registry().counter("memsys.witness_cells_scrubbed");
  obs::Timer& replay_time = obs::registry().timer("memsys.replay_time");

  static MemsysMetrics& get() {
    static MemsysMetrics metrics;
    return metrics;
  }
};

// The mean in trace order, then the quantiles and the maximum by selection
// rather than a sort. util::quantile interpolates between the order
// statistics at floor(pos) and floor(pos) + 1: nth_element places the first
// within what lies above the previous quantile's, and the second is the
// smallest value above it. These are a sort's order statistics, so the
// summary is bit for bit the sorted one.
LatencySummary summarize_latency(std::vector<double>& latencies_ns) {
  LatencySummary summary;
  if (latencies_ns.empty()) return summary;
  double total = 0.0;
  for (const double v : latencies_ns) total += v;
  const std::size_t n = latencies_ns.size();
  summary.mean_ns = total / static_cast<double>(n);

  const auto end = latencies_ns.end();
  auto placed = latencies_ns.begin();  // what lies before it is no larger
  const auto select = [&](double q) {
    const double pos = q * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto nth = latencies_ns.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(placed, nth, end);
    placed = nth;
    const double below = *nth;
    const double above = lo + 1 < n ? *std::min_element(nth + 1, end) : below;
    return below + (pos - static_cast<double>(lo)) * (above - below);
  };
  summary.p50_ns = select(0.50);
  summary.p99_ns = select(0.99);
  summary.p999_ns = select(0.999);
  summary.max_ns = *std::max_element(placed, end);
  return summary;
}

obs::Json latency_json(const LatencySummary& summary) {
  obs::Json json = obs::Json::object();
  json.set("mean_ns", summary.mean_ns);
  json.set("p50_ns", summary.p50_ns);
  json.set("p99_ns", summary.p99_ns);
  json.set("p999_ns", summary.p999_ns);
  json.set("max_ns", summary.max_ns);
  return json;
}

}  // namespace

MemsysReport replay_trace(std::span<const TraceRequest> trace, const ReplayOptions& options) {
  MemsysMetrics& metrics = MemsysMetrics::get();
  metrics.replays.add();
  const obs::ScopedTimer timer(metrics.replay_time);
  const auto wall_start = std::chrono::steady_clock::now();

  const GeometryConfig& geometry = options.geometry;
  geometry.validate();

  MemsysReport report;
  report.geometry = geometry;
  report.requests = trace.size();

  // Behavioral tier: the whole trace through the command scheduler.
  CommandScheduler scheduler(geometry);
  const ScheduleResult schedule = scheduler.run(trace);
  report.requests_retired = schedule.requests_retired;
  report.reads = schedule.reads;
  report.writes = schedule.writes;
  report.scrub_commands = schedule.scrub_commands;
  report.wear_rotations = schedule.wear_rotations;
  report.queue_stall_cycles = schedule.queue_stall_cycles;
  report.total_cycles = schedule.total_cycles;
  report.banks = schedule.banks;
  for (const BankStats& bank : schedule.banks) {
    report.row_hits += bank.row_hits;
    report.row_misses += bank.row_misses;
    report.row_conflicts += bank.row_conflicts;
  }
  const double cycle_s = geometry.timing.cycle_s();
  report.simulated_seconds = static_cast<double>(schedule.total_cycles) * cycle_s;
  if (report.simulated_seconds > 0.0) {
    const double bytes = static_cast<double>(schedule.requests_retired) *
                         static_cast<double>(geometry.bytes_per_access());
    report.sustained_mb_s = bytes / report.simulated_seconds / 1e6;
  }
  const std::uint64_t row_accesses = report.row_hits + report.row_misses + report.row_conflicts;
  if (row_accesses > 0) {
    report.row_hit_rate =
        static_cast<double>(report.row_hits) / static_cast<double>(row_accesses);
  }
  if (schedule.total_cycles > 0 && !schedule.banks.empty()) {
    double occupancy = 0.0;
    for (const BankStats& bank : schedule.banks) {
      occupancy += static_cast<double>(bank.busy_cycles) /
                   static_cast<double>(schedule.total_cycles);
    }
    report.mean_bank_occupancy = occupancy / static_cast<double>(schedule.banks.size());
  }

  const double cycle_ns = cycle_s * 1e9;
  std::vector<double> all_ns;
  std::vector<double> read_ns;
  std::vector<double> write_ns;
  all_ns.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const double ns = static_cast<double>(schedule.latency_cycles[i]) * cycle_ns;
    all_ns.push_back(ns);
    (trace[i].is_write ? write_ns : read_ns).push_back(ns);
  }
  report.latency = summarize_latency(all_ns);
  report.read_latency = summarize_latency(read_ns);
  report.write_latency = summarize_latency(write_ns);

  // Fidelity tiers. The sampling rule indexes retired writes in trace order,
  // so the sample set is a function of the trace alone.
  FidelityConfig fidelity_config = options.fidelity;
  if (options.threads != 0) fidelity_config.threads = options.threads;
  FidelityEngine fidelity(geometry, fidelity_config);
  std::vector<WordSample> word_samples;
  std::vector<WordSample> mna_samples;
  std::size_t write_ordinal = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (!trace[i].is_write) continue;
    if (fidelity.is_word_sample(write_ordinal)) word_samples.push_back({i, trace[i].data});
    if (fidelity.is_mna_sample(write_ordinal)) mna_samples.push_back({i, trace[i].data});
    ++write_ordinal;
  }
  report.word_tier = fidelity.run_word_tier(word_samples);
  report.mna_tier = fidelity.run_mna_tier(mna_samples);
  report.witness = fidelity.run_witness(word_samples);

  metrics.requests_retired.add(schedule.requests_retired);
  metrics.reads.add(schedule.reads);
  metrics.writes.add(schedule.writes);
  metrics.row_hits.add(report.row_hits);
  metrics.row_misses.add(report.row_misses);
  metrics.row_conflicts.add(report.row_conflicts);
  metrics.scrub_commands.add(schedule.scrub_commands);
  metrics.wear_rotations.add(schedule.wear_rotations);
  metrics.word_samples.add(report.word_tier.samples);
  metrics.mna_samples.add(report.mna_tier.samples);
  metrics.witness_cells_scrubbed.add(report.witness.cells_scrubbed);

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return report;
}

obs::Json to_json(const MemsysReport& report) {
  obs::Json json = obs::Json::object();
  json.set("schema", util::kMemsysSchema);

  obs::Json geometry = obs::Json::object();
  geometry.set("channels", static_cast<double>(report.geometry.channels));
  geometry.set("banks_per_channel", static_cast<double>(report.geometry.banks_per_channel));
  geometry.set("rows_per_bank", static_cast<double>(report.geometry.rows_per_bank));
  geometry.set("words_per_row", static_cast<double>(report.geometry.words_per_row));
  geometry.set("cells_per_word", static_cast<double>(report.geometry.cells_per_word));
  geometry.set("bits_per_cell", static_cast<double>(report.geometry.bits_per_cell));
  geometry.set("clk_mhz", report.geometry.timing.clk_mhz);
  geometry.set("queue_depth", static_cast<double>(report.geometry.queue_depth));
  json.set("geometry", geometry);

  obs::Json schedule = obs::Json::object();
  schedule.set("requests", static_cast<double>(report.requests));
  schedule.set("requests_retired", static_cast<double>(report.requests_retired));
  schedule.set("reads", static_cast<double>(report.reads));
  schedule.set("writes", static_cast<double>(report.writes));
  schedule.set("row_hits", static_cast<double>(report.row_hits));
  schedule.set("row_misses", static_cast<double>(report.row_misses));
  schedule.set("row_conflicts", static_cast<double>(report.row_conflicts));
  schedule.set("row_hit_rate", report.row_hit_rate);
  schedule.set("scrub_commands", static_cast<double>(report.scrub_commands));
  schedule.set("wear_rotations", static_cast<double>(report.wear_rotations));
  schedule.set("queue_stall_cycles", static_cast<double>(report.queue_stall_cycles));
  schedule.set("total_cycles", static_cast<double>(report.total_cycles));
  schedule.set("simulated_seconds", report.simulated_seconds);
  schedule.set("sustained_mb_s", report.sustained_mb_s);
  schedule.set("mean_bank_occupancy", report.mean_bank_occupancy);
  json.set("schedule", schedule);

  json.set("latency", latency_json(report.latency));
  json.set("read_latency", latency_json(report.read_latency));
  json.set("write_latency", latency_json(report.write_latency));

  obs::Json banks = obs::Json::array();
  for (const BankStats& bank : report.banks) {
    obs::Json entry = obs::Json::object();
    entry.set("reads", static_cast<double>(bank.reads));
    entry.set("writes", static_cast<double>(bank.writes));
    entry.set("scrubs", static_cast<double>(bank.scrubs));
    entry.set("row_hits", static_cast<double>(bank.row_hits));
    entry.set("row_misses", static_cast<double>(bank.row_misses));
    entry.set("row_conflicts", static_cast<double>(bank.row_conflicts));
    entry.set("busy_cycles", static_cast<double>(bank.busy_cycles));
    entry.set("occupancy", report.total_cycles > 0
                               ? static_cast<double>(bank.busy_cycles) /
                                     static_cast<double>(report.total_cycles)
                               : 0.0);
    entry.set("max_queue_depth", static_cast<double>(bank.max_queue_depth));
    banks.push_back(entry);
  }
  json.set("banks", banks);

  obs::Json word_tier = obs::Json::object();
  word_tier.set("samples", static_cast<double>(report.word_tier.samples));
  word_tier.set("cells", static_cast<double>(report.word_tier.cells));
  word_tier.set("decode_errors", static_cast<double>(report.word_tier.decode_errors));
  word_tier.set("unterminated", static_cast<double>(report.word_tier.unterminated));
  word_tier.set("mean_latency_s", report.word_tier.mean_latency_s);
  word_tier.set("max_latency_s", report.word_tier.max_latency_s);
  word_tier.set("mean_energy_j", report.word_tier.mean_energy_j);
  json.set("word_tier", word_tier);

  obs::Json mna_tier = obs::Json::object();
  mna_tier.set("samples", static_cast<double>(report.mna_tier.samples));
  mna_tier.set("terminated", static_cast<double>(report.mna_tier.terminated));
  mna_tier.set("mean_t_terminate_s", report.mna_tier.mean_t_terminate_s);
  mna_tier.set("mean_energy_j", report.mna_tier.mean_energy_j);
  json.set("mna_tier", mna_tier);

  obs::Json witness = obs::Json::object();
  witness.set("words_written", static_cast<double>(report.witness.words_written));
  witness.set("scrub_words", static_cast<double>(report.witness.scrub_words));
  witness.set("cells_checked", static_cast<double>(report.witness.cells_checked));
  witness.set("cells_scrubbed", static_cast<double>(report.witness.cells_scrubbed));
  witness.set("words_skipped", static_cast<double>(report.witness.words_skipped));
  witness.set("scrub_energy_j", report.witness.scrub_energy_j);
  json.set("witness", witness);

  return json;
}

}  // namespace oxmlc::memsys

#include "memsys/scheduler.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "util/error.hpp"

namespace oxmlc::memsys {

std::size_t deepest_level(const GeometryConfig& geometry, std::uint64_t data) {
  std::size_t deepest = 0;
  for (std::size_t cell = 0; cell < geometry.cells_per_word; ++cell) {
    deepest = std::max(deepest, payload_level(geometry, data, cell));
  }
  return deepest;
}

std::uint64_t write_pulse_cycles(const GeometryConfig& geometry, std::uint64_t data) {
  const std::size_t levels = std::size_t{1} << geometry.bits_per_cell;
  const std::uint64_t span = geometry.timing.t_wp_max - geometry.timing.t_wp_min;
  return geometry.timing.t_wp_min +
         span * static_cast<std::uint64_t>(deepest_level(geometry, data)) /
             static_cast<std::uint64_t>(levels - 1);
}

CommandScheduler::CommandScheduler(GeometryConfig geometry) : geometry_(std::move(geometry)) {
  geometry_.validate();
}

namespace {

struct Pending {
  std::size_t index = 0;       // position in the trace (latency slot)
  std::uint64_t arrival = 0;   // trace arrival cycle
  std::size_t row = 0;         // physical row (wear rotation applied)
  bool is_write = false;
  std::uint64_t write_cycles = 0;  // level-dependent pulse, writes only
};

constexpr std::size_t kNoOpenRow = std::numeric_limits<std::size_t>::max();
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

}  // namespace

ScheduleResult CommandScheduler::run(std::span<const TraceRequest> trace) {
  const GeometryConfig& g = geometry_;
  const std::size_t n_banks = g.total_banks();
  const TimingParams& tm = g.timing;

  ScheduleResult result;
  result.latency_cycles.assign(trace.size(), 0);
  result.banks.assign(n_banks, BankStats{});

  std::vector<std::deque<Pending>> queues(n_banks);
  std::vector<std::uint64_t> bank_free_at(n_banks, 0);
  std::vector<std::size_t> open_row(n_banks, kNoOpenRow);
  std::vector<std::uint64_t> next_scrub_at(
      n_banks, g.scrub_interval_cycles > 0 ? g.scrub_interval_cycles : kNever);
  std::vector<std::uint64_t> channel_free_at(g.channels, 0);
  // Write-drain state, per bank: set when queued writes reach the threshold,
  // cleared when the last queued write retires.
  std::vector<char> draining(n_banks, 0);

  std::size_t admit_index = 0;
  std::uint64_t last_arrival = 0;
  std::uint64_t wear_offset = 0;  // start-gap pointer, in rows
  std::uint64_t writes_retired = 0;
  std::uint64_t t = 0;

  // Bank of an address is independent of the wear-leveling row rotation, so
  // the admission target can be computed before the request is admitted.
  const auto target_bank = [&](std::uint64_t address) {
    const DecodedAddress decoded = decode_address(g, address);
    return decoded.channel * g.banks_per_channel + decoded.bank;
  };

  const auto admit = [&] {
    while (admit_index < trace.size() && trace[admit_index].cycle <= t) {
      const TraceRequest& request = trace[admit_index];
      OXMLC_CHECK(request.cycle >= last_arrival,
                  "CommandScheduler: trace cycle " + std::to_string(request.cycle) +
                      " at request " + std::to_string(admit_index) +
                      " decreases below " + std::to_string(last_arrival));
      const std::size_t bank = target_bank(request.address);
      if (queues[bank].size() >= g.queue_depth) break;  // head-of-line blocking
      const DecodedAddress decoded = decode_address(g, request.address);
      Pending pending;
      pending.index = admit_index;
      pending.arrival = request.cycle;
      pending.row =
          static_cast<std::size_t>((decoded.row + wear_offset) % g.rows_per_bank);
      pending.is_write = request.is_write;
      if (request.is_write) pending.write_cycles = write_pulse_cycles(g, request.data);
      queues[bank].push_back(pending);
      result.banks[bank].max_queue_depth =
          std::max(result.banks[bank].max_queue_depth, queues[bank].size());
      last_arrival = request.cycle;
      ++admit_index;
    }
  };

  const auto issue_on = [&](std::size_t bank) {
    BankStats& stats = result.banks[bank];
    // Maintenance first: a due scrub preempts the queue (it models the
    // controller's mandatory scrub slot; skipping it under load would let
    // retention errors accumulate exactly when the device is hottest).
    if (next_scrub_at[bank] <= t) {
      bank_free_at[bank] = t + tm.t_scrub;
      stats.busy_cycles += tm.t_scrub;
      ++stats.scrubs;
      ++result.scrub_commands;
      open_row[bank] = kNoOpenRow;  // scrub closes the row
      while (next_scrub_at[bank] <= t) next_scrub_at[bank] += g.scrub_interval_cycles;
      result.total_cycles = std::max(result.total_cycles, bank_free_at[bank]);
      return;
    }
    std::deque<Pending>& queue = queues[bank];
    if (queue.empty()) return;
    // Arbitration. FR-FCFS picks the oldest request hitting the open row,
    // falling back to the oldest overall; FCFS is strict arrival order; the
    // write-drain policy is FR-FCFS restricted to writes while the bank
    // drains (entered at write_drain_threshold queued writes, left when none
    // remain), so µs-class RESET pulses retire in batches instead of
    // trickling between reads.
    const auto fr_pick = [&](bool writes_only) {
      std::size_t oldest = queue.size();
      for (std::size_t i = 0; i < queue.size(); ++i) {
        if (writes_only && !queue[i].is_write) continue;
        if (oldest == queue.size()) oldest = i;
        if (open_row[bank] != kNoOpenRow && queue[i].row == open_row[bank]) return i;
      }
      return oldest;
    };
    std::size_t pick = 0;
    switch (g.scheduler_policy) {
      case SchedulerPolicy::kFcfs:
        pick = 0;
        break;
      case SchedulerPolicy::kFrFcfs:
        pick = fr_pick(false);
        break;
      case SchedulerPolicy::kWriteDrain: {
        std::size_t queued_writes = 0;
        for (const Pending& p : queue) queued_writes += p.is_write ? 1 : 0;
        if (queued_writes >= g.write_drain_threshold) draining[bank] = 1;
        if (queued_writes == 0) draining[bank] = 0;
        pick = draining[bank] != 0 ? fr_pick(true) : fr_pick(false);
        break;
      }
    }
    const Pending pending = queue[pick];
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(pick));

    const std::uint64_t access =
        pending.is_write ? pending.write_cycles : tm.t_cas;
    std::uint64_t service = access;
    if (open_row[bank] == pending.row) {
      ++stats.row_hits;
    } else if (open_row[bank] == kNoOpenRow) {
      ++stats.row_misses;
      service += tm.t_rcd;
    } else {
      ++stats.row_conflicts;
      service += tm.t_rp + tm.t_rcd;
    }
    const std::size_t channel = bank / g.banks_per_channel;
    std::uint64_t completion = 0;
    if (pending.is_write) {
      // Data arrives over the bus at the start of the write pulse.
      const std::uint64_t begin = std::max(t, channel_free_at[channel]);
      channel_free_at[channel] = begin + tm.t_burst;
      completion = begin + std::max(service, tm.t_burst);
    } else {
      // Data leaves over the bus at the end of the array access.
      const std::uint64_t burst_begin =
          std::max(t + service - std::min(service, tm.t_burst), channel_free_at[channel]);
      completion = std::max(t + service, burst_begin + tm.t_burst);
      channel_free_at[channel] = completion;
    }
    bank_free_at[bank] = completion;
    stats.busy_cycles += completion - t;
    open_row[bank] = pending.row;
    result.latency_cycles[pending.index] = completion - pending.arrival;
    ++result.requests_retired;
    if (pending.is_write) {
      ++stats.writes;
      ++result.writes;
      ++writes_retired;
      if (g.rotate_every_writes > 0 && writes_retired % g.rotate_every_writes == 0) {
        ++wear_offset;  // start-gap advance: remaps rows of later admissions
        ++result.wear_rotations;
      }
    } else {
      ++stats.reads;
      ++result.reads;
    }
    result.total_cycles = std::max(result.total_cycles, completion);
  };

  while (result.requests_retired < trace.size()) {
    admit();
    for (std::size_t bank = 0; bank < n_banks; ++bank) {
      if (bank_free_at[bank] <= t) issue_on(bank);
    }
    if (result.requests_retired >= trace.size()) break;

    // Advance to the next event: the next admissible arrival (or, if its
    // queue is full, that bank's completion) or the next issuable command.
    std::uint64_t next = kNever;
    if (admit_index < trace.size()) {
      const TraceRequest& head = trace[admit_index];
      const std::size_t bank = target_bank(head.address);
      if (queues[bank].size() < g.queue_depth) {
        next = std::min(next, std::max(head.cycle, t + 1));
      } else {
        next = std::min(next, std::max(bank_free_at[bank], t + 1));
        result.queue_stall_cycles +=
            std::max(bank_free_at[bank], t + 1) - std::max(head.cycle, t);
      }
    }
    for (std::size_t bank = 0; bank < n_banks; ++bank) {
      const bool has_work = !queues[bank].empty() || next_scrub_at[bank] != kNever;
      if (!has_work) continue;
      std::uint64_t ready = std::max(bank_free_at[bank], t + 1);
      if (queues[bank].empty()) ready = std::max(ready, next_scrub_at[bank]);
      next = std::min(next, ready);
    }
    OXMLC_CHECK(next != kNever,
                "CommandScheduler: no next event with " +
                    std::to_string(trace.size() - result.requests_retired) +
                    " requests outstanding (internal scheduling bug)");
    t = next;
  }
  return result;
}

}  // namespace oxmlc::memsys

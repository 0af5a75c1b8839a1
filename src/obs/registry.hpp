// Named-metric registry: the aggregation point of one run's telemetry.
//
// Call sites obtain a metric once and cache the reference:
//
//   static obs::Counter& iters = obs::registry().counter("newton.iterations");
//   iters.add(result.iterations);
//
// The registry never deletes or moves a metric, so cached references stay
// valid for the process lifetime; reset_values() zeroes every metric in place
// between runs (e.g. per Monte-Carlo study) without invalidating them.
//
// Naming convention: dot-separated lowercase paths, subsystem first —
// "newton.iterations", "transient.steps.accepted", "mlc.program.level3.pulses".
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace oxmlc::obs {

// Value-type snapshot of a whole registry, ordered by metric name. This is
// what the exporters serialize and the tests compare.
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
    bool operator==(const CounterSample&) const = default;
  };
  struct GaugeSample {
    std::string name;
    double value = 0.0;
    bool operator==(const GaugeSample&) const = default;
  };
  struct TimerSample {
    std::string name;
    Timer::Snapshot stats;
    bool operator==(const TimerSample& other) const {
      return name == other.name && stats.count == other.stats.count &&
             stats.total_ns == other.stats.total_ns &&
             stats.min_ns == other.stats.min_ns && stats.max_ns == other.stats.max_ns;
    }
  };
  struct HistogramSample {
    std::string name;
    Histogram::Snapshot stats;
    bool operator==(const HistogramSample& other) const {
      return name == other.name && stats.lo == other.stats.lo &&
             stats.hi == other.stats.hi && stats.count == other.stats.count &&
             stats.sum == other.stats.sum && stats.min == other.stats.min &&
             stats.max == other.stats.max && stats.bins == other.stats.bins;
    }
  };

  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<TimerSample> timers;
  std::vector<HistogramSample> histograms;

  bool operator==(const MetricsSnapshot&) const = default;

  // Lookup helpers (0 / empty-handed on a missing name would hide typos, so
  // these throw InvalidArgumentError instead).
  std::uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  const Timer::Snapshot& timer(const std::string& name) const;
  const Histogram::Snapshot& histogram(const std::string& name) const;
  bool has_counter(const std::string& name) const;
};

class Registry {
 public:
  // Find-or-create by name. A name is bound to its first-created kind;
  // re-requesting it as a different kind throws InvalidArgumentError.
  // For histograms the (lo, hi, bins) shape is fixed at first creation;
  // later calls with different bounds return the existing instance.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Timer& timer(const std::string& name);
  Histogram& histogram(const std::string& name, double lo, double hi,
                       std::size_t bins);

  // Indexed counter families: "<prefix><index><suffix>", e.g.
  // counter("mlc.program.level", 3, ".pulses"). This is the one sanctioned
  // way to build a metric name at runtime — the grep-ability contract (and
  // the oxmlc-metrics-literal static check) requires every other call site
  // to pass a string literal, so the full name or the family stem is always
  // searchable in the source.
  Counter& counter(const char* prefix, std::size_t index, const char* suffix);

  MetricsSnapshot snapshot() const;

  // Zeroes every metric in place; references handed out remain valid.
  void reset_values();

  std::size_t size() const;

 private:
  enum class Kind { kCounter, kGauge, kTimer, kHistogram };
  struct Entry {
    std::string name;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Timer> timer;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(const std::string& name, Kind kind, double lo, double hi,
                        std::size_t bins);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;  // insertion order
};

// Process-global registry used by all built-in instrumentation. Never
// destroyed (intentionally leaked) so metrics recorded from static-teardown
// paths stay safe.
Registry& registry();

}  // namespace oxmlc::obs

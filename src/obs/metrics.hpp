// Lock-free metric primitives for the observability layer.
//
// Design constraints (the solver hot loops call these per Newton iteration):
//   * recording is wait-free — relaxed atomic adds, CAS only for min/max;
//   * a single global enable flag gates every record path, so a disabled
//     build costs one relaxed atomic load per call site;
//   * metrics never move once created (the Registry hands out stable
//     references that call sites cache in function-local statics).
//
// Thread model: concurrent record() from any number of threads is safe.
// snapshot reads are racy-but-consistent-per-field (each field is a single
// atomic); reset() concurrent with record() may lose a sample, which is fine
// for telemetry. Exact aggregation happens between runs, not during.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace oxmlc::obs {

// Global record gate. Default: enabled (the overhead is a few relaxed atomic
// ops per solver iteration, invisible next to an LU factorization); tools that
// need the last nanoseconds call set_enabled(false).
bool enabled();
void set_enabled(bool on);

// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-written scalar (thread count, configuration echoes, derived rates).
class Gauge {
 public:
  void set(double v) {
    if (enabled()) value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Streaming summary of an observed distribution: count/sum/min/max plus
// fixed-width bins over [lo, hi) (out-of-range samples clamp to the edge
// bins). Snapshot quantiles come from the bins; exact moments from sum/count.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void observe(double value);

  struct Snapshot {
    double lo = 0.0;
    double hi = 0.0;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  // 0 when empty
    double max = 0.0;
    std::vector<std::uint64_t> bins;

    double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
  };
  Snapshot snapshot() const;
  void reset();

 private:
  double lo_;
  double hi_;
  double inv_width_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
  std::vector<std::atomic<std::uint64_t>> bins_;
};

// Accumulated wall time of a code region: count + total/min/max nanoseconds.
class Timer {
 public:
  void record_ns(std::uint64_t ns);

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t min_ns = 0;  // 0 when empty
    std::uint64_t max_ns = 0;

    double total_seconds() const { return static_cast<double>(total_ns) * 1e-9; }
  };
  Snapshot snapshot() const;
  void reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> min_ns_{~0ull};
  std::atomic<std::uint64_t> max_ns_{0};
};

// RAII region timer. Reads the clock only when recording is enabled at
// construction; a disabled scope is two branches and no clock calls.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& timer)
      : timer_(enabled() ? &timer : nullptr),
        start_(timer_ ? std::chrono::steady_clock::now()
                      : std::chrono::steady_clock::time_point{}) {}
  ~ScopedTimer() { stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  // Ends the region early (idempotent).
  void stop() {
    if (timer_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    timer_->record_ns(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
    timer_ = nullptr;
  }

 private:
  Timer* timer_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace oxmlc::obs

#include "obs/registry.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace oxmlc::obs {

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  throw InvalidArgumentError("MetricsSnapshot: no counter named " + name);
}

double MetricsSnapshot::gauge(const std::string& name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return g.value;
  }
  throw InvalidArgumentError("MetricsSnapshot: no gauge named " + name);
}

const Timer::Snapshot& MetricsSnapshot::timer(const std::string& name) const {
  for (const auto& t : timers) {
    if (t.name == name) return t.stats;
  }
  throw InvalidArgumentError("MetricsSnapshot: no timer named " + name);
}

const Histogram::Snapshot& MetricsSnapshot::histogram(const std::string& name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return h.stats;
  }
  throw InvalidArgumentError("MetricsSnapshot: no histogram named " + name);
}

bool MetricsSnapshot::has_counter(const std::string& name) const {
  return std::any_of(counters.begin(), counters.end(),
                     [&](const CounterSample& c) { return c.name == name; });
}

Registry::Entry& Registry::find_or_create(const std::string& name, Kind kind, double lo,
                                          double hi, std::size_t bins) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : entries_) {
    if (entry->name != name) continue;
    OXMLC_CHECK(entry->kind == kind,
                "Registry: metric '" + name + "' already exists with another kind");
    return *entry;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->kind = kind;
  switch (kind) {
    case Kind::kCounter: entry->counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: entry->gauge = std::make_unique<Gauge>(); break;
    case Kind::kTimer: entry->timer = std::make_unique<Timer>(); break;
    case Kind::kHistogram:
      entry->histogram = std::make_unique<Histogram>(lo, hi, bins);
      break;
  }
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& Registry::counter(const std::string& name) {
  return *find_or_create(name, Kind::kCounter, 0, 0, 0).counter;
}

Gauge& Registry::gauge(const std::string& name) {
  return *find_or_create(name, Kind::kGauge, 0, 0, 0).gauge;
}

Timer& Registry::timer(const std::string& name) {
  return *find_or_create(name, Kind::kTimer, 0, 0, 0).timer;
}

Counter& Registry::counter(const char* prefix, std::size_t index, const char* suffix) {
  return counter(prefix + std::to_string(index) + suffix);
}

Histogram& Registry::histogram(const std::string& name, double lo, double hi,
                               std::size_t bins) {
  return *find_or_create(name, Kind::kHistogram, lo, hi, bins).histogram;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& entry : entries_) {
      switch (entry->kind) {
        case Kind::kCounter:
          snap.counters.push_back({entry->name, entry->counter->value()});
          break;
        case Kind::kGauge:
          snap.gauges.push_back({entry->name, entry->gauge->value()});
          break;
        case Kind::kTimer:
          snap.timers.push_back({entry->name, entry->timer->snapshot()});
          break;
        case Kind::kHistogram:
          snap.histograms.push_back({entry->name, entry->histogram->snapshot()});
          break;
      }
    }
  }
  const auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.timers.begin(), snap.timers.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : entries_) {
    switch (entry->kind) {
      case Kind::kCounter: entry->counter->reset(); break;
      case Kind::kGauge: entry->gauge->reset(); break;
      case Kind::kTimer: entry->timer->reset(); break;
      case Kind::kHistogram: entry->histogram->reset(); break;
    }
  }
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

Registry& registry() {
  static Registry* global = new Registry();  // leaked: see header
  return *global;
}

}  // namespace oxmlc::obs

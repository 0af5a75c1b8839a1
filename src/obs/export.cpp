#include "obs/export.hpp"

#include <filesystem>
#include <fstream>

#include "util/error.hpp"
#include "util/schema.hpp"

namespace oxmlc::obs {
namespace {

Json timer_to_json(const Timer::Snapshot& t) {
  Json obj = Json::object();
  obj.set("count", Json(static_cast<double>(t.count)));
  obj.set("total_ns", Json(static_cast<double>(t.total_ns)));
  obj.set("min_ns", Json(static_cast<double>(t.min_ns)));
  obj.set("max_ns", Json(static_cast<double>(t.max_ns)));
  return obj;
}

Json histogram_to_json(const Histogram::Snapshot& h) {
  Json obj = Json::object();
  obj.set("lo", Json(h.lo));
  obj.set("hi", Json(h.hi));
  obj.set("count", Json(static_cast<double>(h.count)));
  obj.set("sum", Json(h.sum));
  obj.set("min", Json(h.min));
  obj.set("max", Json(h.max));
  Json bins = Json::array();
  for (std::uint64_t b : h.bins) bins.push_back(Json(static_cast<double>(b)));
  obj.set("bins", std::move(bins));
  return obj;
}

std::uint64_t as_u64(const Json& j) { return static_cast<std::uint64_t>(j.as_number()); }

}  // namespace

Json to_json(const MetricsSnapshot& snapshot) {
  Json root = Json::object();
  root.set("schema", Json(util::kMetricsSchema));

  Json counters = Json::object();
  for (const auto& c : snapshot.counters) {
    counters.set(c.name, Json(static_cast<double>(c.value)));
  }
  root.set("counters", std::move(counters));

  Json gauges = Json::object();
  for (const auto& g : snapshot.gauges) gauges.set(g.name, Json(g.value));
  root.set("gauges", std::move(gauges));

  Json timers = Json::object();
  for (const auto& t : snapshot.timers) timers.set(t.name, timer_to_json(t.stats));
  root.set("timers", std::move(timers));

  Json histograms = Json::object();
  for (const auto& h : snapshot.histograms) {
    histograms.set(h.name, histogram_to_json(h.stats));
  }
  root.set("histograms", std::move(histograms));
  return root;
}

MetricsSnapshot snapshot_from_json(const Json& json) {
  OXMLC_CHECK(json.is_object(), "metrics json: root must be an object");
  OXMLC_CHECK(json.contains("schema") && json.get("schema").is_string() &&
                  json.get("schema").as_string() == util::kMetricsSchema,
              "metrics json: missing or unsupported schema tag");

  MetricsSnapshot snap;
  for (const auto& [name, value] : json.get("counters").members()) {
    snap.counters.push_back({name, as_u64(value)});
  }
  for (const auto& [name, value] : json.get("gauges").members()) {
    snap.gauges.push_back({name, value.as_number()});
  }
  for (const auto& [name, value] : json.get("timers").members()) {
    Timer::Snapshot t;
    t.count = as_u64(value.get("count"));
    t.total_ns = as_u64(value.get("total_ns"));
    t.min_ns = as_u64(value.get("min_ns"));
    t.max_ns = as_u64(value.get("max_ns"));
    snap.timers.push_back({name, t});
  }
  for (const auto& [name, value] : json.get("histograms").members()) {
    Histogram::Snapshot h;
    h.lo = value.get("lo").as_number();
    h.hi = value.get("hi").as_number();
    h.count = as_u64(value.get("count"));
    h.sum = value.get("sum").as_number();
    h.min = value.get("min").as_number();
    h.max = value.get("max").as_number();
    const Json& bins = value.get("bins");
    for (std::size_t i = 0; i < bins.size(); ++i) h.bins.push_back(as_u64(bins.at(i)));
    snap.histograms.push_back({name, h});
  }
  return snap;
}

void write_file(const std::string& path, const std::string& text) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream file(path, std::ios::trunc);
  OXMLC_CHECK(file.good(), "cannot open output file: " + path);
  file << text;
  OXMLC_CHECK(file.good(), "failed writing output file: " + path);
}

void write_metrics_json(const std::string& path) {
  write_file(path, to_json(registry().snapshot()).dump(2) + "\n");
}

}  // namespace oxmlc::obs

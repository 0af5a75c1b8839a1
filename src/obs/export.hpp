// Serialization of a MetricsSnapshot to schema-tagged JSON, plus the inverse
// JSON reader used by tests and downstream tooling.
//
// JSON schema ("oxmlc.metrics.v1"):
//   {
//     "schema": "oxmlc.metrics.v1",
//     "counters":   { "<name>": <u64>, ... },
//     "gauges":     { "<name>": <double>, ... },
//     "timers":     { "<name>": {"count","total_ns","min_ns","max_ns"}, ... },
//     "histograms": { "<name>": {"lo","hi","count","sum","min","max",
//                                "bins":[u64,...]}, ... }
//   }
#pragma once

#include <string>

#include "obs/json.hpp"
#include "obs/registry.hpp"

namespace oxmlc::obs {

Json to_json(const MetricsSnapshot& snapshot);

// Inverse of to_json. Throws InvalidArgumentError on a missing/mismatched
// schema tag or malformed sections.
MetricsSnapshot snapshot_from_json(const Json& json);

// Writes `text` to `path`, creating parent directories. Throws IoError-style
// oxmlc::Error on failure.
void write_file(const std::string& path, const std::string& text);

// Convenience: snapshot the global registry and write it to `path` as JSON
// indented by two spaces.
void write_metrics_json(const std::string& path);

}  // namespace oxmlc::obs

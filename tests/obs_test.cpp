#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"
#include "util/schema.hpp"

namespace oxmlc::obs {
namespace {

// Every test runs against its own Registry instance, so the global registry's
// contents (populated by other suites' solver calls) never leak in.

TEST(ObsCounter, AccumulatesAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, DisabledRecordingIsDropped) {
  Counter c;
  set_enabled(false);
  c.add(7);
  set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  c.add(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST(ObsHistogram, BinsAndSummary) {
  Histogram h(0.0, 10.0, 10);
  h.observe(0.5);   // bin 0
  h.observe(9.5);   // bin 9
  h.observe(-3.0);  // clamps into bin 0
  h.observe(25.0);  // clamps into bin 9
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 32.0);
  EXPECT_DOUBLE_EQ(snap.min, -3.0);
  EXPECT_DOUBLE_EQ(snap.max, 25.0);
  EXPECT_EQ(snap.bins[0], 2u);
  EXPECT_EQ(snap.bins[9], 2u);
  for (std::size_t i = 1; i < 9; ++i) EXPECT_EQ(snap.bins[i], 0u);
  EXPECT_DOUBLE_EQ(snap.mean(), 8.0);
}

TEST(ObsHistogram, EmptySnapshotHasZeroExtremes) {
  Histogram h(0.0, 1.0, 4);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 0.0);
}

TEST(ObsTimer, RecordsExtremesAndTotals) {
  Timer t;
  t.record_ns(100);
  t.record_ns(300);
  t.record_ns(200);
  const auto snap = t.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.total_ns, 600u);
  EXPECT_EQ(snap.min_ns, 100u);
  EXPECT_EQ(snap.max_ns, 300u);
  EXPECT_DOUBLE_EQ(snap.total_seconds(), 600e-9);
}

TEST(ObsScopedTimer, RecordsOneSampleAndStopIsIdempotent) {
  Timer t;
  {
    ScopedTimer scope(t);
    scope.stop();
    scope.stop();
  }
  EXPECT_EQ(t.snapshot().count, 1u);
}

TEST(ObsRegistry, FindOrCreateReturnsStableReferences) {
  Registry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(reg.snapshot().counter("x.count"), 3u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(ObsRegistry, KindCollisionThrows) {
  Registry reg;
  reg.counter("name");
  EXPECT_THROW(reg.timer("name"), InvalidArgumentError);
  EXPECT_THROW(reg.gauge("name"), InvalidArgumentError);
  EXPECT_THROW(reg.histogram("name", 0, 1, 2), InvalidArgumentError);
}

TEST(ObsRegistry, ResetValuesPreservesReferences) {
  Registry reg;
  Counter& c = reg.counter("c");
  Timer& t = reg.timer("t");
  Histogram& h = reg.histogram("h", 0.0, 1.0, 2);
  c.add(5);
  t.record_ns(10);
  h.observe(0.5);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(t.snapshot().count, 0u);
  EXPECT_EQ(h.snapshot().count, 0u);
  c.add(1);  // the reference is still live and wired to the registry
  EXPECT_EQ(reg.snapshot().counter("c"), 1u);
}

TEST(ObsRegistry, SnapshotIsSortedByName) {
  Registry reg;
  reg.counter("zeta");
  reg.counter("alpha");
  reg.counter("mid");
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "mid");
  EXPECT_EQ(snap.counters[2].name, "zeta");
}

TEST(ObsRegistry, MissingNameLookupsThrow) {
  Registry reg;
  const auto snap = reg.snapshot();
  EXPECT_THROW(snap.counter("nope"), InvalidArgumentError);
  EXPECT_THROW(snap.timer("nope"), InvalidArgumentError);
  EXPECT_THROW(snap.histogram("nope"), InvalidArgumentError);
  EXPECT_FALSE(snap.has_counter("nope"));
}

TEST(ObsRegistry, ConcurrentRecordingIsLossless) {
  Registry reg;
  Counter& counter = reg.counter("hits");
  Histogram& hist = reg.histogram("values", 0.0, 1.0, 8);
  Timer& timer = reg.timer("work");

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.add();
        hist.observe(static_cast<double>((t + i) % 10) / 10.0);
        timer.record_ns(1);
      }
    });
  }
  for (auto& worker : pool) worker.join();

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(counter.value(), kTotal);
  const auto hist_snap = hist.snapshot();
  EXPECT_EQ(hist_snap.count, kTotal);
  std::uint64_t bin_total = 0;
  for (std::uint64_t b : hist_snap.bins) bin_total += b;
  EXPECT_EQ(bin_total, kTotal);
  EXPECT_EQ(timer.snapshot().total_ns, kTotal);
}

TEST(ObsRegistry, ConcurrentFindOrCreateIsRaceFree) {
  Registry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> pool;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      Counter& mine = reg.counter("shared");
      Counter& again = reg.counter("shared");
      if (&mine != &again) mismatches.fetch_add(1);
      mine.add();
    });
  }
  for (auto& worker : pool) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.snapshot().counter("shared"), static_cast<std::uint64_t>(kThreads));
}

// --- JSON document model ---

TEST(ObsJson, DumpParseRoundTripPreservesStructure) {
  Json obj = Json::object();
  obj.set("name", Json("newton.iterations"));
  obj.set("value", Json(1234.0));
  obj.set("tiny", Json(3.0517578125e-05));
  obj.set("flag", Json(true));
  obj.set("nothing", Json(nullptr));
  Json arr = Json::array();
  arr.push_back(Json(1.0));
  arr.push_back(Json(-2.5));
  obj.set("bins", std::move(arr));

  for (int indent : {0, 2}) {
    const Json reparsed = Json::parse(obj.dump(indent));
    EXPECT_EQ(reparsed, obj) << "indent=" << indent;
  }
}

TEST(ObsJson, EscapesControlAndQuoteCharacters) {
  Json j(std::string("line\n\"quoted\"\ttab\\slash"));
  const Json back = Json::parse(j.dump());
  EXPECT_EQ(back.as_string(), "line\n\"quoted\"\ttab\\slash");
}

TEST(ObsJson, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), InvalidArgumentError);
  EXPECT_THROW(Json::parse("{"), InvalidArgumentError);
  EXPECT_THROW(Json::parse("[1,]"), InvalidArgumentError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), InvalidArgumentError);
  EXPECT_THROW(Json::parse("truthy"), InvalidArgumentError);
  EXPECT_THROW(Json::parse("{'a':1}"), InvalidArgumentError);
}

// Pins the duplicate-key policy: the parser rejects duplicates instead of
// silently keeping the last value. Nested objects and distinct keys at
// different depths stay legal.
TEST(ObsJson, ParseRejectsDuplicateObjectKeys) {
  EXPECT_THROW(Json::parse("{\"a\":1,\"a\":2}"), InvalidArgumentError);
  EXPECT_THROW(Json::parse("{\"x\":{\"k\":1,\"k\":2}}"), InvalidArgumentError);
  // Same key in sibling objects is fine.
  const Json ok = Json::parse("{\"x\":{\"k\":1},\"y\":{\"k\":2}}");
  EXPECT_EQ(ok.get("x").get("k").as_number(), 1.0);
  EXPECT_EQ(ok.get("y").get("k").as_number(), 2.0);
}

TEST(ObsJson, TypeMismatchAccessThrows) {
  Json j(1.5);
  EXPECT_THROW(j.as_string(), InvalidArgumentError);
  EXPECT_THROW(j.get("k"), InvalidArgumentError);
  EXPECT_THROW(j.at(0), InvalidArgumentError);
}

// --- exporters ---

MetricsSnapshot populated_snapshot() {
  Registry reg;
  reg.counter("newton.iterations").add(321);
  reg.counter("transient.steps.accepted").add(100);
  reg.gauge("mc.threads").set(8.0);
  reg.timer("mc.trial_time").record_ns(1500);
  reg.timer("mc.trial_time").record_ns(500);
  Histogram& h = reg.histogram("transient.log10_dt", -14.0, -7.0, 14);
  h.observe(-9.3);
  h.observe(-8.1);
  return reg.snapshot();
}

TEST(ObsExport, JsonRoundTripsExactly) {
  const MetricsSnapshot snap = populated_snapshot();
  const Json json = to_json(snap);
  EXPECT_EQ(json.get("schema").as_string(), util::kMetricsSchema);

  // Through text and back: parse(dump) then snapshot_from_json must
  // reconstruct the identical snapshot, for compact and pretty output.
  for (int indent : {0, 2}) {
    const MetricsSnapshot restored =
        snapshot_from_json(Json::parse(json.dump(indent)));
    EXPECT_EQ(restored, snap) << "indent=" << indent;
  }
}

TEST(ObsExport, JsonCarriesAllSections) {
  const Json json = to_json(populated_snapshot());
  EXPECT_EQ(json.get("counters").get("newton.iterations").as_number(), 321.0);
  EXPECT_EQ(json.get("gauges").get("mc.threads").as_number(), 8.0);
  EXPECT_EQ(json.get("timers").get("mc.trial_time").get("count").as_number(), 2.0);
  EXPECT_EQ(json.get("timers").get("mc.trial_time").get("total_ns").as_number(),
            2000.0);
  const Json& hist = json.get("histograms").get("transient.log10_dt");
  EXPECT_EQ(hist.get("count").as_number(), 2.0);
  EXPECT_EQ(hist.get("bins").size(), 14u);
}

TEST(ObsExport, RejectsWrongSchema) {
  Json root = Json::object();
  root.set("schema", Json("somebody.else.v9"));
  EXPECT_THROW(snapshot_from_json(root), InvalidArgumentError);
  EXPECT_THROW(snapshot_from_json(Json(1.0)), InvalidArgumentError);
}

TEST(ObsExport, WriteMetricsJsonProducesParsableFile) {
  registry().counter("obs_test.file_marker").add(1);
  const std::string path = ::testing::TempDir() + "/oxmlc_obs_test_metrics.json";
  write_metrics_json(path);
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  const MetricsSnapshot restored = snapshot_from_json(Json::parse(buffer.str()));
  EXPECT_GE(restored.counter("obs_test.file_marker"), 1u);
}

// --- built-in instrumentation: the global registry picks up solver work ---

TEST(ObsIntegration, GlobalRegistryExposesBuiltInMetricNames) {
  // Touching the accessors must not throw and must keep kinds consistent
  // with the call sites in src/numeric, src/spice, src/mlc and src/mc.
  EXPECT_NO_THROW(registry().counter("newton.iterations"));
  EXPECT_NO_THROW(registry().counter("transient.steps.accepted"));
  EXPECT_NO_THROW(registry().counter("dc.solves"));
  EXPECT_NO_THROW(registry().timer("mc.trial_time"));
  EXPECT_NO_THROW(registry().histogram("transient.log10_dt", -14.0, -7.0, 14));
}

}  // namespace
}  // namespace oxmlc::obs

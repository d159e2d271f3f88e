// One transition, three sinks: every control-loop decision the hub notes
// (backoff, quiescence, layer add/drop, rebuffer, fault, SLO alert, farm
// admission/ladder/shed) must reach the flight recorder, the live feed's
// SSE "note" events and the Chrome trace with the same kind, the same
// sim time and the same fields. The three sinks are read back the way
// their consumers read them — flightrec JSONL, sse_parse over the feed's
// stream, trace.json lines — and compared entry by entry.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "app/experiment.h"
#include "app/farm.h"
#include "app/observability.h"
#include "util/chrome_trace.h"
#include "util/http_sse.h"
#include "util/json.h"
#include "util/slo.h"
#include "util/timeseries.h"

namespace qa::app {
namespace {

// One noted transition as a sink recorded it.
struct Note {
  int64_t t_ns = 0;
  std::string kind;
  std::string fields;  // canonical compact JSON of the detail/args object
};

// Compact re-serialization, so "{\"a\": 1}" and "{\"a\":1}" compare equal.
std::string canonical(const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kBool:
      return v.boolean ? "true" : "false";
    case JsonValue::Type::kNumber:
      return json_number(v.number);
    case JsonValue::Type::kString:
      return json_quote(v.str);
    case JsonValue::Type::kArray: {
      std::string out = "[";
      for (const JsonValue& e : v.array) {
        if (out.size() > 1) out += ",";
        out += canonical(e);
      }
      return out + "]";
    }
    case JsonValue::Type::kObject: {
      std::string out = "{";
      for (const auto& [key, member] : v.object) {
        if (out.size() > 1) out += ",";
        out += json_quote(key) + ":" + canonical(member);
      }
      return out + "}";
    }
  }
  return "";
}

JsonValue parse_or_fail(std::string_view text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(json_parse(text, &v, &error)) << error << " in: " << text;
  return v;
}

std::vector<Note> flightrec_notes(const FlightRecorder& rec) {
  std::vector<Note> notes;
  std::istringstream in(rec.to_jsonl());
  std::string line;
  while (std::getline(in, line)) {
    const JsonValue v = parse_or_fail(line);
    notes.push_back({static_cast<int64_t>(v.find("ts_ns")->number),
                     v.find("kind")->str, canonical(*v.find("data"))});
  }
  return notes;
}

// Drains the (closed) feed through the SSE codec, keeping "note" frames.
std::vector<Note> sse_notes(const LiveFeed& feed) {
  std::string stream;
  uint64_t cursor = 0;
  while (feed.next_events(&cursor, &stream, 0)) {
  }
  std::vector<SseFrame> frames;
  EXPECT_EQ(sse_parse(stream, &frames), stream.size());
  std::vector<Note> notes;
  for (const SseFrame& f : frames) {
    EXPECT_NE(f.event, "resync") << "feed ring too small for the test run";
    if (f.event != "note") continue;
    const JsonValue v = parse_or_fail(f.data);
    notes.push_back({std::llround(v.find("t")->number * 1e9),
                     v.find("kind")->str, canonical(*v.find("detail"))});
  }
  return notes;
}

// Trace instants that are transitions: every instant except the
// per-packet ones (journey lanes, queue drops, timeout losses).
std::vector<Note> trace_notes(const std::string& path) {
  std::vector<Note> notes;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line == "[" || line == "]") continue;
    if (line.ends_with(",")) line.pop_back();
    const JsonValue v = parse_or_fail(line);
    if (v.find("ph")->str != "i") continue;
    if (v.find("tid")->number >= ChromeTraceWriter::kJourneyTrackBase) {
      continue;
    }
    const std::string& name = v.find("name")->str;
    if (name == "timeout_loss" || name.starts_with("queue_drop ")) continue;
    const JsonValue* args = v.find("args");
    notes.push_back({std::llround(v.find("ts")->number * 1e3), name,
                     args != nullptr ? canonical(*args) : "{}"});
  }
  return notes;
}

// The flight recorder and the SSE feed carry the exact same entries; the
// trace matches them up to its microsecond timestamp's 1 ns rounding.
void expect_same_notes(const std::vector<Note>& fr,
                       const std::vector<Note>& sse,
                       const std::vector<Note>& trace) {
  ASSERT_EQ(fr.size(), sse.size());
  ASSERT_EQ(fr.size(), trace.size());
  for (size_t i = 0; i < fr.size(); ++i) {
    SCOPED_TRACE("note #" + std::to_string(i) + " " + fr[i].kind);
    EXPECT_EQ(sse[i].kind, fr[i].kind);
    EXPECT_EQ(trace[i].kind, fr[i].kind);
    EXPECT_EQ(sse[i].fields, fr[i].fields);
    EXPECT_EQ(trace[i].fields, fr[i].fields);
    EXPECT_LE(std::llabs(sse[i].t_ns - fr[i].t_ns), 1);
    EXPECT_LE(std::llabs(trace[i].t_ns - fr[i].t_ns), 1);
  }
}

class TransitionTest : public ::testing::Test {
 protected:
  std::string dir_ = ::testing::TempDir() + "/qa_app_transition_test";
  // Big enough that neither the ring nor the feed drops anything.
  LiveFeed feed_{1 << 16};

  void SetUp() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // All three sinks on; journeys off so the ring holds notes only.
  ObservabilityConfig config() {
    ObservabilityConfig cfg;
    cfg.out_dir = dir_;
    cfg.trace = true;
    cfg.profile = false;
    cfg.journeys = false;
    cfg.flightrec = true;
    cfg.flightrec_events = 1 << 16;
    cfg.live.feed = &feed_;
    return cfg;
  }
};

TEST_F(TransitionTest, Fig2TransitionsReachAllThreeSinksIdentically) {
  // An SLO objective any backoff breaches, so alert notes are covered too.
  TimeSeriesRecorder recorder(nullptr);
  SloEngine engine(&recorder);
  SloObjective obj;
  obj.name = "no_backoffs";
  obj.series = "rap.backoffs";
  obj.signal = SloObjective::Signal::kRate;
  obj.threshold = 1e-6;
  obj.fast_window = TimeDelta::seconds(1);
  obj.slow_window = TimeDelta::seconds(2);
  engine.add(obj);

  ObservabilityConfig cfg = config();
  cfg.recorder = &recorder;
  cfg.slo = &engine;
  Observability obs(cfg);
  recorder.bind(&obs.registry());
  recorder.select("rap.*");

  ExperimentParams params;
  params.rap_flows = 1;
  params.tcp_flows = 0;
  params.duration_sec = 8;
  params.bottleneck = Rate::kilobits_per_sec(240);
  params.layer_rate = Rate::bytes_per_sec(10'000);
  params.stream_layers = 4;
  params.kmax = 1;
  params.random_faults = 2;
  params.observability = &obs;
  run_experiment(params);  // finishes the hub
  feed_.close();

  const auto fr = flightrec_notes(*obs.flightrec());
  const auto sse = sse_notes(feed_);
  const auto trace = trace_notes(dir_ + "/trace.json");
  expect_same_notes(fr, sse, trace);

  std::set<std::string> kinds;
  for (const Note& n : fr) kinds.insert(n.kind);
  for (const char* want : {"rap.backoff", "adapter.layer_add",
                           "adapter.layer_drop", "slo.open"}) {
    EXPECT_EQ(kinds.count(want), 1u) << "no " << want << " note";
  }
  bool fault = false;
  for (const std::string& k : kinds) fault = fault || k.starts_with("fault.");
  EXPECT_TRUE(fault) << "no fault note";
  // The layer drop carries the §4 buffer inputs in every sink.
  for (const Note& n : fr) {
    if (n.kind != "adapter.layer_drop") continue;
    EXPECT_NE(n.fields.find("\"required_buf\":"), std::string::npos)
        << n.fields;
    EXPECT_NE(n.fields.find("\"poor_distribution\":"), std::string::npos)
        << n.fields;
  }
}

TEST_F(TransitionTest, FarmAdmissionNotesReachAllThreeSinks) {
  Observability obs(config());
  FarmParams p = farm_preset("smoke");
  p.duration = TimeDelta::seconds(30);
  p.registry = &obs.registry();
  p.obs = &obs;
  const FarmResult r = run_farm(p);
  obs.finish();
  feed_.close();

  const auto fr = flightrec_notes(*obs.flightrec());
  const auto sse = sse_notes(feed_);
  const auto trace = trace_notes(dir_ + "/trace.json");
  expect_same_notes(fr, sse, trace);

  int64_t verdicts = 0;
  for (const Note& n : fr) {
    if (n.kind.starts_with("farm.admission.")) ++verdicts;
  }
  EXPECT_GT(verdicts, 0);
  EXPECT_EQ(verdicts, r.arrivals);  // one verdict per join attempt
}

}  // namespace
}  // namespace qa::app

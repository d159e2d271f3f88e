#include "util/flightrec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/json.h"

namespace qa {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(FlightRecorder, FormatsJourneySpansWithHopNamesWhenRead) {
  JourneyRecorder journeys;
  const HopId hop = journeys.register_hop("bottleneck");
  FlightRecorder rec(8, &journeys);
  JourneySpan span;
  span.id = 7;
  span.stage = JourneyStage::kTxStart;
  span.at = TimePoint::from_ns(1500);
  span.hop = hop;
  span.flow = 2;
  span.layer = 1;
  span.seq = 42;
  rec.note_journey(span);
  span.stage = JourneyStage::kSubmit;
  span.hop = kNoHop;
  rec.note_journey(span);
  rec.note(TimePoint::from_ns(1600), "a", "{}");
  const auto lines = lines_of(rec.to_jsonl());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0],
            "{\"ts_ns\":1500,\"kind\":\"journey.tx_start\",\"data\":{\"id\":7,"
            "\"flow\":2,\"layer\":1,\"seq\":42,\"hop\":\"bottleneck\"}}");
  EXPECT_EQ(lines[1],
            "{\"ts_ns\":1500,\"kind\":\"journey.submit\",\"data\":{\"id\":7,"
            "\"flow\":2,\"layer\":1,\"seq\":42}}");
  EXPECT_EQ(lines[2], "{\"ts_ns\":1600,\"kind\":\"a\",\"data\":{}}");
}

TEST(FlightRecorder, KeepsEventsInOrder) {
  FlightRecorder rec(8);
  rec.note(TimePoint::from_sec(1), "a", "{}");
  rec.note(TimePoint::from_sec(2), "b", "{\"x\":1}");
  const auto lines = lines_of(rec.to_jsonl());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"kind\":\"a\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\":\"b\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"data\":{\"x\":1}"), std::string::npos);
  EXPECT_EQ(rec.notes(), 2);
}

TEST(FlightRecorder, RingOverwritesOldestFirst) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.note(TimePoint::from_sec(i), "e" + std::to_string(i), "{}");
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.notes(), 10);
  const auto lines = lines_of(rec.to_jsonl());
  ASSERT_EQ(lines.size(), 4u);
  // The dump holds exactly the last 4 events, oldest first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(lines[static_cast<size_t>(i)].find(
                  "\"kind\":\"e" + std::to_string(6 + i) + "\""),
              std::string::npos)
        << lines[static_cast<size_t>(i)];
  }
}

TEST(FlightRecorder, EveryDumpLineIsValidJson) {
  FlightRecorder rec(8);
  rec.note(TimePoint::from_sec(1), "weird \"kind\"\n\\", "{\"ok\":true}");
  rec.note(TimePoint::from_sec(2), "empty-data", "");
  for (const std::string& line : lines_of(rec.to_jsonl())) {
    JsonValue v;
    std::string error;
    ASSERT_TRUE(json_parse(line, &v, &error)) << error << "\n" << line;
    ASSERT_TRUE(v.is_object());
    EXPECT_NE(v.find("ts_ns"), nullptr);
    EXPECT_NE(v.find("kind"), nullptr);
    EXPECT_NE(v.find("data"), nullptr);
  }
}

TEST(FlightRecorder, CheckFailureDumpsTheRing) {
  const std::string path = testing::TempDir() + "/flightrec_crash.jsonl";
  std::remove(path.c_str());
  const CheckSink old_sink = check_sink();
  set_check_sink(CheckSink::kThrow);
  {
    FlightRecorder rec(16);
    rec.arm_crash_dump(path);
    rec.note(TimePoint::from_sec(1), "before_failure", "{\"n\":1}");
    EXPECT_THROW(QA_CHECK_MSG(false, "forced for flightrec test"),
                 CheckFailure);
    EXPECT_EQ(rec.crash_dumps(), 1);
  }
  set_check_sink(old_sink);

  const std::string dumped = slurp(path);
  EXPECT_NE(dumped.find("\"kind\":\"before_failure\""), std::string::npos)
      << dumped;
}

TEST(FlightRecorder, DisarmStopsCrashDumps) {
  const std::string path = testing::TempDir() + "/flightrec_disarm.jsonl";
  std::remove(path.c_str());
  const CheckSink old_sink = check_sink();
  set_check_sink(CheckSink::kThrow);
  {
    FlightRecorder rec(4);
    rec.arm_crash_dump(path);
    rec.disarm();
    rec.note(TimePoint::from_sec(1), "quiet", "{}");
    EXPECT_THROW(QA_CHECK(false), CheckFailure);
    EXPECT_EQ(rec.crash_dumps(), 0);
  }
  set_check_sink(old_sink);
  std::ifstream in(path);
  EXPECT_FALSE(in.good());
}

TEST(FlightRecorder, DestructorDisarmsTheHook) {
  const std::string path = testing::TempDir() + "/flightrec_dtor.jsonl";
  std::remove(path.c_str());
  const CheckSink old_sink = check_sink();
  set_check_sink(CheckSink::kThrow);
  {
    FlightRecorder rec(4);
    rec.arm_crash_dump(path);
  }
  // The recorder is gone; a failure now must not touch the dangling hook.
  EXPECT_THROW(QA_CHECK(false), CheckFailure);
  set_check_sink(old_sink);
  std::ifstream in(path);
  EXPECT_FALSE(in.good());
}

}  // namespace
}  // namespace qa

// ChromeTraceWriter in isolation: the in-place ts and args formatting
// against the printf/json_quote formulas they replace, events that span
// buffer chunks, and write failures reported by close() but never thrown
// out of the destructor.
#include "util/chrome_trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/logging.h"

namespace qa {
namespace {

std::string slurp(const std::string& path) {
  std::stringstream ss;
  ss << std::ifstream(path, std::ios::binary).rdbuf();
  return ss.str();
}

std::string ts_string(int64_t ns) {
  char buf[ChromeTraceWriter::kTsChars];
  const size_t n = ChromeTraceWriter::format_ts(TimePoint::from_ns(ns), buf);
  return std::string(buf, n);
}

std::string printf_ts(int64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) * 1e-3);
  return buf;
}

TEST(ChromeTraceTs, MatchesPrintfOnSeededNanosecondTimes) {
  std::mt19937_64 rng(7);
  // From about 1e15 ns, ns * 1e-3 no longer rounds to the exact decimal.
  constexpr int64_t kInexactNs = 1'000'000'000'000'000;
  for (int i = 0; i < 1'000'000; ++i) {
    const uint64_t r = rng();
    int64_t ns = 0;
    switch (i % 5) {
      case 0: ns = static_cast<int64_t>(r % 100'000'000'000); break;  // 100 s
      case 1: ns = static_cast<int64_t>(r % 1000); break;
      case 2:  // either side of where the double stops being exact
        ns = kInexactNs - 5'000'000 + static_cast<int64_t>(r % 10'000'000);
        break;
      case 3: ns = static_cast<int64_t>(r >> 1); break;  // up to 2^63
      default: ns = -static_cast<int64_t>(r % 100'000'000'000); break;
    }
    ASSERT_EQ(ts_string(ns), printf_ts(ns)) << ns;
  }
  for (int64_t ns : {int64_t{0}, int64_t{-1}, int64_t{999}, int64_t{1000},
                     kInexactNs - 1, kInexactNs, -kInexactNs,
                     std::numeric_limits<int64_t>::max(),
                     std::numeric_limits<int64_t>::min()}) {
    EXPECT_EQ(ts_string(ns), printf_ts(ns)) << ns;
  }
}

class ChromeTraceFileTest : public ::testing::Test {
 protected:
  std::string dir_ = ::testing::TempDir() + "/qa_chrome_trace_test";

  void SetUp() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
};

TEST_F(ChromeTraceFileTest, ArgsFormatLikeJsonHelpers) {
  const std::string path = dir_ + "/args.json";
  {
    ChromeTraceWriter w(path);
    w.instant(TimePoint::from_ns(1'500), 3, "odd \"name\"\n",
              {{"i", 42},
               {"big", int64_t{-9'000'000'000}},
               {"d", 0.1},
               {"inf", std::numeric_limits<double>::infinity()},
               {"yes", true},
               {"lit", "x\\y"},
               {"key\t", std::string_view("\x01")}});
    w.close();
  }
  const std::string want =
      "[\n{\"ph\":\"i\",\"pid\":1,\"tid\":3,\"ts\":1.500,\"name\":" +
      json_quote("odd \"name\"\n") + ",\"s\":\"t\",\"args\":{\"i\":42," +
      "\"big\":-9000000000,\"d\":0.1,\"inf\":null,\"yes\":true,\"lit\":" +
      json_quote("x\\y") + "," + json_quote("key\t") + ":" +
      json_quote("\x01") + "}}\n]\n";
  EXPECT_EQ(slurp(path), want);
}

TEST_F(ChromeTraceFileTest, EventsSpanningChunksArriveWhole) {
  const std::string path = dir_ + "/chunks.json";
  // Names longer than the buffer, and enough small events to wrap it many
  // times at unaligned offsets.
  const std::string huge(ChromeTraceWriter::kBufferBytes * 2 + 17, 'q');
  std::string expected = "[";
  {
    ChromeTraceWriter w(path);
    for (int i = 0; i < 5000; ++i) {
      const bool big = i % 1000 == 3;
      w.counter(TimePoint::from_ns(i), 5,
                big ? std::string_view(huge) : "queue", "bytes", i * 0.5);
      expected += i == 0 ? "\n" : ",\n";
      expected += "{\"ph\":\"C\",\"pid\":1,\"tid\":5,\"ts\":" + ts_string(i) +
                  ",\"name\":" + json_quote(big ? huge : "queue") +
                  ",\"args\":{\"bytes\":" + json_number(i * 0.5) + "}}";
    }
    EXPECT_EQ(w.events_written(), 5000);
    w.close();
    w.close();  // idempotent
    w.instant(TimePoint::from_ns(1), 1, "dropped after close");
  }
  expected += "\n]\n";
  EXPECT_EQ(slurp(path), expected);
}

// Writes to /dev/full fail with ENOSPC; the test is skipped without it.
bool have_dev_full() { return std::filesystem::exists("/dev/full"); }

TEST(ChromeTraceFailure, CloseThrowsWhenAFlushFailed) {
  if (!have_dev_full()) GTEST_SKIP() << "no /dev/full";
  ChromeTraceWriter w("/dev/full");
  // More than one chunk, so the failure happens mid-run, not at close().
  for (int i = 0; i < 10'000; ++i) {
    w.counter(TimePoint::from_ns(i), 5, "queue bottleneck", "bytes", i);
  }
  EXPECT_THROW(w.close(), std::runtime_error);
  EXPECT_FALSE(w.is_open());
  EXPECT_NO_THROW(w.close());  // reported once
}

TEST(ChromeTraceFailure, CloseThrowsWhenOnlyTheFinalFlushFails) {
  if (!have_dev_full()) GTEST_SKIP() << "no /dev/full";
  ChromeTraceWriter w("/dev/full");
  w.instant(TimePoint::from_ns(1), 1, "small");
  EXPECT_THROW(w.close(), std::runtime_error);
}

TEST(ChromeTraceFailure, DestructorLogsInsteadOfTerminating) {
  if (!have_dev_full()) GTEST_SKIP() << "no /dev/full";
  std::vector<std::string> errors;
  set_log_sink([&errors](const LogRecord& rec) {
    if (rec.level == LogLevel::kError) errors.push_back(rec.message);
  });
  {
    ChromeTraceWriter w("/dev/full");
    w.instant(TimePoint::from_ns(1), 1, "never flushed");
  }  // no close(): the failed flush surfaces in the destructor
  set_log_sink(nullptr);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("trace file write failed"), std::string::npos);
}

}  // namespace
}  // namespace qa

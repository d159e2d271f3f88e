// Byte pin for the observability exporters: a short fig-2 run per
// congestion-control backend under the full hub (trace, journeys, flight
// recorder, profiler, metrics) must write exactly the bytes recorded here.
// The only host-dependent values — the measured handler cost that rides on
// every scheduler span as "wall_ns":<digits> — are masked before hashing.
//
// The digests were recorded with the ostream-based trace writer and the
// string-building flight recorder, so a rewrite of the emission path is
// checked against their bytes rather than against itself. A mismatch
// prints the fresh digests; re-pin only for an intended format change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

#include "app/experiment.h"
#include "app/observability.h"
#include "cc/congestion_controller.h"

namespace qa::app {
namespace {

std::string slurp(const std::string& path) {
  std::stringstream ss;
  ss << std::ifstream(path, std::ios::binary).rdbuf();
  return ss.str();
}

// `"wall_ns":<digits>` -> `"wall_ns":0`.
std::string mask_wall_ns(std::string_view text) {
  constexpr std::string_view kKey = "\"wall_ns\":";
  std::string out;
  out.reserve(text.size());
  size_t pos = 0;
  while (true) {
    const size_t at = text.find(kKey, pos);
    if (at == std::string_view::npos) break;
    out.append(text, pos, at + kKey.size() - pos);
    out.push_back('0');
    pos = at + kKey.size();
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
  }
  out.append(text, pos);
  return out;
}

std::string fnv1a_hex(std::string_view bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

struct Pin {
  cc::Backend backend;
  const char* trace;     // fnv1a of trace.json with wall_ns masked
  const char* flightrec; // fnv1a of the flight recorder's dump()
};

void PrintTo(const Pin& pin, std::ostream* os) {
  *os << cc::to_string(pin.backend);
}

class TraceBytesTest : public ::testing::TestWithParam<Pin> {
 protected:
  std::string dir_ = ::testing::TempDir() + "/qa_trace_bytes_test_" +
                     cc::to_string(GetParam().backend);

  void SetUp() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
};

TEST_P(TraceBytesTest, Fig2ArtifactsMatchPinnedBytes) {
  const Pin& pin = GetParam();
  ObservabilityConfig cfg;
  cfg.out_dir = dir_;
  Observability obs(cfg);

  // The qa_trace fig-2 scenario, shortened: one QA flow alone on a
  // 240 kb/s bottleneck, 8 layers of C = 10 kB/s, Kmax 1.
  ExperimentParams params;
  params.backend = pin.backend;
  params.rap_flows = 1;
  params.tcp_flows = 0;
  params.duration_sec = 4;
  params.seed = 1;
  params.bottleneck = Rate::kilobits_per_sec(240);
  params.layer_rate = Rate::bytes_per_sec(10'000);
  params.stream_layers = 8;
  params.kmax = 1;
  params.observability = &obs;
  run_experiment(params);
  ASSERT_TRUE(obs.finished());

  const std::string trace = mask_wall_ns(slurp(dir_ + "/trace.json"));
  ASSERT_NE(trace.find("\"wall_ns\":0"), std::string::npos);

  // The ring survives finish(); in a healthy run its tail is journey spans.
  ASSERT_NE(obs.flightrec(), nullptr);
  obs.flightrec()->dump(dir_ + "/flightrec.jsonl");
  const std::string flightrec = slurp(dir_ + "/flightrec.jsonl");
  ASSERT_NE(flightrec.find("\"kind\":\"journey."), std::string::npos);

  EXPECT_EQ(fnv1a_hex(trace), pin.trace)
      << cc::to_string(pin.backend) << " trace.json (" << trace.size()
      << " bytes) changed";
  EXPECT_EQ(fnv1a_hex(flightrec), pin.flightrec)
      << cc::to_string(pin.backend) << " flight recorder dump ("
      << flightrec.size() << " bytes) changed";
}

INSTANTIATE_TEST_SUITE_P(
    Backends, TraceBytesTest,
    ::testing::Values(
        Pin{cc::Backend::kRap, "e7127f0227d84acf", "879640f65f83acee"},
        Pin{cc::Backend::kTfrc, "47a45c8a73125d24", "85cb02803bbb6911"},
        Pin{cc::Backend::kNada, "55765f109acb333c", "46bab4aaa5464d81"}),
    [](const ::testing::TestParamInfo<Pin>& param) {
      return std::string(cc::to_string(param.param.backend));
    });

}  // namespace
}  // namespace qa::app

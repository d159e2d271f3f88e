// Farm-level behavioral tests: same-seed determinism of the full
// 500-arrival churn scenario, the overload admission-on/off contrast
// (admission must strictly reduce the aggregate rebuffer rate without
// hurting fairness or flapping), and registry boundedness (per-session
// metrics fold into shared histograms, so the export size is independent
// of how many sessions churned through).
#include "app/farm.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>

#include "util/metrics_registry.h"

namespace qa::app {
namespace {

// A shared preset (smoke / churn500 / overload, see farm_preset) with the
// test's seed.
FarmParams preset(std::string_view name, uint64_t seed) {
  FarmParams p = farm_preset(name);
  p.seed = seed;
  return p;
}

TEST(Farm, UnknownPresetNamesTheAlternatives) {
  try {
    farm_preset("fig99");
    FAIL() << "unknown preset accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("churn500"), std::string::npos)
        << e.what();
  }
}

TEST(Farm, SmokeRunIsSane) {
  const FarmResult r = run_farm(preset("smoke", 3));
  EXPECT_GT(r.arrivals, 0);
  EXPECT_GT(r.admitted, 0);
  EXPECT_GT(r.total_packets_received, 0);
  EXPECT_GT(r.session_seconds, 0);
  EXPECT_LE(r.admitted + r.admitted_base_only,
            r.arrivals);  // every admit came from an arrival
  EXPECT_GE(r.peak_active, 1);
  EXPECT_FALSE(r.series.empty());
  // A healthy (under-provisioned-in-slots but not overloaded) farm never
  // climbs past freezing adds, and never flaps.
  EXPECT_LE(r.max_shed_level, static_cast<int>(ShedLevel::kFreezeAdds));
  EXPECT_EQ(r.oscillation_events, 0);
}

TEST(Farm, SameSeedChurn500IsDigestIdentical) {
  const FarmResult a = run_farm(preset("churn500", 1));
  const FarmResult b = run_farm(preset("churn500", 1));
  // The scenario really is the 500-arrival acceptance run.
  EXPECT_GE(a.arrivals, 500);
  EXPECT_EQ(farm_digest(a), farm_digest(b));
  // Spot-check the ledger too, so a digest bug can't mask divergence.
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.total_packets_received, b.total_packets_received);
  EXPECT_EQ(a.series.size(), b.series.size());
}

TEST(Farm, DifferentSeedsDiverge) {
  const FarmResult a = run_farm(preset("smoke", 1));
  const FarmResult b = run_farm(preset("smoke", 2));
  EXPECT_NE(farm_digest(a), farm_digest(b));
}

TEST(Farm, OverloadAdmissionBeatsNoAdmission) {
  FarmParams on = preset("overload", 1);
  FarmParams off = preset("overload", 1);
  off.admission_enabled = false;

  const FarmResult r_on = run_farm(on);
  const FarmResult r_off = run_farm(off);

  // The controller actually gated something.
  EXPECT_GT(r_on.rejected, 0);
  EXPECT_LT(r_on.peak_active, r_off.peak_active);

  // Acceptance: admission-on yields a strictly lower aggregate rebuffer
  // rate and no worse fairness, with zero admit/evict oscillation.
  EXPECT_LT(r_on.aggregate_rebuffer_rate, r_off.aggregate_rebuffer_rate);
  EXPECT_GE(r_on.mean_jain, r_off.mean_jain);
  EXPECT_EQ(r_on.oscillation_events, 0);
  EXPECT_EQ(r_on.shed, 0);  // graceful degradation never reached eviction
}

TEST(Farm, RegistryExportSizeIsIndependentOfChurnVolume) {
  MetricsRegistry small_reg;
  FarmParams small = preset("smoke", 5);
  small.duration = TimeDelta::seconds(30);
  small.registry = &small_reg;
  const FarmResult r_small = run_farm(small);

  MetricsRegistry big_reg;
  FarmParams big = preset("smoke", 5);
  big.duration = TimeDelta::seconds(120);
  big.arrival_rate_hz = 1.0;
  // Fast churn: many more distinct sessions.
  big.mean_session = TimeDelta::seconds(10);
  big.registry = &big_reg;
  const FarmResult r_big = run_farm(big);

  EXPECT_GT(r_big.departures, 2 * r_small.departures);
  // Per-session metrics fold into shared farm histograms: the number of
  // exported instruments must not grow with the number of sessions.
  EXPECT_EQ(big_reg.size(), small_reg.size());
  EXPECT_GT(big_reg.size(), 0u);
}

TEST(Farm, SeriesCsvRoundTrips) {
  const FarmResult r = run_farm(preset("smoke", 3));
  const std::string path = "farm_test_series.csv";
  write_farm_series_csv(r, path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char header[256] = {0};
  ASSERT_NE(std::fgets(header, sizeof(header), f), nullptr);
  EXPECT_NE(std::string(header).find("t_sec"), std::string::npos);
  EXPECT_NE(std::string(header).find("shed_level"), std::string::npos);
  int lines = 0;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) ++lines;
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(static_cast<size_t>(lines), r.series.size());
}

}  // namespace
}  // namespace qa::app

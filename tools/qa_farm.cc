// qa_farm — server-farm scenario runner: N concurrent quality-adaptive
// sessions over a shared bottleneck with Poisson churn, quality-aware
// admission control, and the overload load-shedding ladder.
//
//   qa_farm                             # smoke preset (16 slots, 60 s)
//   qa_farm --preset churn500           # 500-session churn run
//   qa_farm --preset overload           # offered load >> capacity
//   qa_farm --no-admission --no-ladder  # uncontrolled baseline
//   qa_farm --out-dir DIR --print-digest
//
// Artifacts in --out-dir: farm.csv (aggregate time series), metrics.csv /
// metrics.json (folded per-session histograms + farm counters), and
// manifest.json. --print-digest prints the canonical run digest; two runs
// with the same seed and parameters print the same value.
#include <cstdio>
#include <filesystem>
#include <string>

#include "app/farm.h"
#include "app/observability.h"
#include "util/flags.h"

using namespace qa;
using namespace qa::app;

namespace {

void usage() {
  std::printf(
      "qa_farm [flags]\n"
      "  --preset NAME         smoke | churn500 | overload (default smoke)\n"
      "  --backend NAME        session congestion control: rap, tfrc, or\n"
      "                        nada (default rap)\n"
      "  --seed N              farm seed (default 1)\n"
      "  --slots N             concurrent-session capacity\n"
      "  --duration-s SECS     simulated duration\n"
      "  --bottleneck-kbps K   shared bottleneck bandwidth\n"
      "  --rtt-ms MS           base round-trip propagation\n"
      "  --layers N            stream layers\n"
      "  --layer-rate BPS      per-layer consumption C (bytes/s)\n"
      "  --packet-size B       data packet size\n"
      "  --arrival-rate HZ     Poisson arrival rate\n"
      "  --mean-session-s SECS mean exponential session lifetime\n"
      "  --flash-crowd-at SECS flash-crowd instant (<0 disables)\n"
      "  --flash-crowd-n N     arrivals in the flash crowd\n"
      "  --mass-departure-at SECS  mass-departure instant (<0 disables)\n"
      "  --mass-departure-frac F   fraction of active sessions departing\n"
      "  --outage-at SECS      bottleneck outage start (<0 disables)\n"
      "  --outage-s SECS       outage duration\n"
      "  --sample-dt SECS      aggregate sampling period (default 0.5)\n"
      "  --no-admission        disable the admission controller\n"
      "  --no-ladder           disable the load-shedding ladder\n"
      "  --print-digest        print the canonical run digest\n"
      "  --trace               also write trace.json (admission verdicts,\n"
      "                        shed-ladder rung, farm counter tracks);\n"
      "                        needs --out-dir\n"
      "  --flightrec-events N  flight-recorder ring size (default 1024)\n"
      "  --no-flightrec        skip the crash-time flight recorder\n"
      "  --out-dir DIR         write farm.csv, metrics.{csv,json}, "
      "manifest.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("help")) {
    usage();
    return 0;
  }

  FarmParams p;
  try {
    p = farm_preset(flags.get_or("preset", "smoke"));
    if (flags.has("backend")) {
      p.backend = cc::parse_backend(flags.get_or("backend", "rap"));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qa_farm: %s\n", e.what());
    return 1;
  }
  p.seed = static_cast<uint64_t>(flags.get_int("seed", 1));
  p.slots = static_cast<int>(flags.get_int("slots", p.slots));
  p.duration =
      TimeDelta::from_sec(flags.get_double("duration-s", p.duration.sec()));
  p.bottleneck_bw = Rate::kilobits_per_sec(
      flags.get_double("bottleneck-kbps", p.bottleneck_bw.kbps()));
  p.rtt = TimeDelta::from_sec(
      flags.get_double("rtt-ms", p.rtt.sec() * 1000.0) / 1000.0);
  p.stream_layers = static_cast<int>(flags.get_int("layers", p.stream_layers));
  p.layer_rate =
      Rate::bytes_per_sec(flags.get_double("layer-rate", p.layer_rate.bps()));
  p.packet_size =
      static_cast<int32_t>(flags.get_int("packet-size", p.packet_size));
  p.arrival_rate_hz = flags.get_double("arrival-rate", p.arrival_rate_hz);
  p.mean_session = TimeDelta::from_sec(
      flags.get_double("mean-session-s", p.mean_session.sec()));
  p.flash_crowd_at = TimeDelta::from_sec(
      flags.get_double("flash-crowd-at", p.flash_crowd_at.sec()));
  p.flash_crowd_arrivals = static_cast<int>(
      flags.get_int("flash-crowd-n", p.flash_crowd_arrivals));
  p.mass_departure_at = TimeDelta::from_sec(
      flags.get_double("mass-departure-at", p.mass_departure_at.sec()));
  p.mass_departure_fraction =
      flags.get_double("mass-departure-frac", p.mass_departure_fraction);
  p.outage_at =
      TimeDelta::from_sec(flags.get_double("outage-at", p.outage_at.sec()));
  p.outage = TimeDelta::from_sec(flags.get_double("outage-s", p.outage.sec()));
  p.sample_dt =
      TimeDelta::from_sec(flags.get_double("sample-dt", p.sample_dt.sec()));
  p.admission_enabled = !flags.get_bool("no-admission", false);
  p.ladder_enabled = !flags.get_bool("no-ladder", false);
  const bool print_digest = flags.get_bool("print-digest", false);
  // The hub carries the farm's metric rows, flight recorder, notes and
  // (with --trace) trace.json. No profiler or journeys: the farm attaches
  // neither, so the artifact rows stay the farm's own.
  ObservabilityConfig ocfg;
  ocfg.out_dir = flags.get_or("out-dir", "");
  ocfg.trace = flags.get_bool("trace", false);
  ocfg.profile = false;
  ocfg.journeys = false;
  ocfg.flightrec = flags.get_bool("flightrec", true);
  ocfg.flightrec_events =
      static_cast<size_t>(flags.get_int("flightrec-events", 1024));
  const std::string& out_dir = ocfg.out_dir;

  const auto unused = flags.unused();
  if (!unused.empty()) {
    for (const auto& u : unused) {
      std::fprintf(stderr, "unknown flag --%s\n", u.c_str());
    }
    usage();
    return 1;
  }
  if (ocfg.trace && out_dir.empty()) {
    std::fprintf(stderr, "qa_farm: --trace needs --out-dir\n");
    usage();
    return 1;
  }

  if (!out_dir.empty()) std::filesystem::create_directories(out_dir);
  Observability obs(ocfg);
  if (!out_dir.empty()) {
    p.registry = &obs.registry();
    p.obs = &obs;
  }

  const FarmResult r = run_farm(p);

  std::printf(
      "farm: %lld arrivals -> %lld admitted (%lld base-only), %lld rejected "
      "(%lld capacity), %lld retries\n",
      static_cast<long long>(r.arrivals), static_cast<long long>(r.admitted),
      static_cast<long long>(r.admitted_base_only),
      static_cast<long long>(r.rejected),
      static_cast<long long>(r.rejected_capacity),
      static_cast<long long>(r.retries));
  std::printf(
      "      %lld departures, %lld shed, peak %d active (mean %.1f), "
      "max shed level %d, %lld oscillations\n",
      static_cast<long long>(r.departures), static_cast<long long>(r.shed),
      r.peak_active, r.mean_active, r.max_shed_level,
      static_cast<long long>(r.oscillation_events));
  std::printf(
      "      rebuffer rate %.4f (%.1f s over %.1f session-s), "
      "mean Jain %.3f, mean layers %.2f\n",
      r.aggregate_rebuffer_rate, r.total_rebuffer_sec, r.session_seconds,
      r.mean_jain, r.mean_layers);

  if (!out_dir.empty()) {
    write_farm_series_csv(r, out_dir + "/farm.csv");
    RunManifest& manifest = obs.manifest();
    manifest.set("tool", "qa_farm");
    manifest.set_args(argc, argv);
    manifest.set_int("seed", static_cast<int64_t>(p.seed));
    manifest.set_int("slots", p.slots);
    manifest.set_number("duration_s", p.duration.sec());
    manifest.set_number("bottleneck_bytes_per_sec", p.bottleneck_bw.bps());
    manifest.set_int("admission_enabled", p.admission_enabled ? 1 : 0);
    manifest.set_int("ladder_enabled", p.ladder_enabled ? 1 : 0);
    manifest.set_int("arrivals", r.arrivals);
    manifest.set_int("oscillation_events", r.oscillation_events);
    if (obs.trace() != nullptr) {
      manifest.set("trace_path", out_dir + "/trace.json");
    }
  }
  // Writes metrics.{csv,json}, manifest.json and trace.json, and disarms
  // the crash dump: a run that finished cleanly needs none.
  obs.finish();
  if (print_digest) {
    std::printf("digest: %016llx\n",
                static_cast<unsigned long long>(farm_digest(r)));
  }
  return 0;
}

// qa_trace — run a streaming scenario with full observability and write
// the artifact bundle: a Perfetto-loadable Chrome trace, a metrics
// snapshot (CSV + JSON), and a provenance manifest.
//
// The default scenario is a fig-2 style single quality-adaptive flow on a
// small dumbbell: a lone RAP source against a bottleneck a few layers
// wide, so the trace shows clean AIMD sawtooths, layer adds/drops, and
// buffer accumulation without competing-flow noise. Every parameter is a
// flag; crank --rap-flows/--tcp-flows up for a contended fig-11 style run.
// --csv writes the run's time series; --no-trace skips the Chrome trace
// when only the outcome is wanted.
//
//   qa_trace --out-dir /tmp/qa_run
//   qa_trace --out-dir /tmp/qa_run --duration-s 60 --kmax 2 --seed 7
//   qa_trace --out-dir /tmp/qa_run --rap-flows 10 --tcp-flows 10
//   qa_trace --out-dir /tmp/qa_run --no-trace --cbr --csv run.csv
//   qa_trace --out-dir /tmp/qa_run --allocation equal-share  # §2.3 strawman
//
// Load <out-dir>/trace.json at ui.perfetto.dev (or chrome://tracing); see
// EXPERIMENTS.md for the lane layout and a reading guide.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "app/experiment.h"
#include "app/obs_flags.h"
#include "app/observability.h"
#include "core/baseline_policies.h"
#include "util/csv.h"
#include "util/flags.h"

using namespace qa;
using namespace qa::app;

namespace {

void usage() {
  std::printf(
      "qa_trace [flags]\n"
      "  --out-dir DIR          artifact directory (required; created)\n"
      "  --duration-s SECS      run length (default 20, 90 with --cbr)\n"
      "  --seed N               RNG seed (default 1)\n"
      "  --bottleneck-kbps K    bottleneck bandwidth (default 240)\n"
      "  --rtt-ms MS            round-trip propagation (default 40)\n"
      "  --queue-bytes B        bottleneck queue (default 50000)\n"
      "  --red                  RED bottleneck instead of drop-tail\n"
      "  --layer-rate BPS       per-layer consumption C (default 10000)\n"
      "  --layers N             stream layers (default 8)\n"
      "  --packet BYTES         packet size (default 250)\n"
      "  --kmax N               max backoffs survivable, K_max (default 1)\n"
      "  --allocation P         optimal|equal-share|base-only\n"
      "  --rap-flows N          RAP flows incl. the QA one (default 1)\n"
      "  --tcp-flows N          competing TCP flows (default 0)\n"
      "  --cbr                  CBR burst at half bottleneck, 30-60 s\n"
      "  --backend NAME         QA flow congestion control: rap, tfrc, or\n"
      "                         nada (default rap)\n"
      "  --csv FILE             write the time series as CSV\n"
      "%s",
      observability_flags_usage());
}

// One row per sample: rate, consumption, layers, buffers, rebuffering.
void write_series_csv(const std::string& path, const ExperimentParams& p,
                      const ExperimentResult& r) {
  std::vector<std::string> cols = {"t_sec",       "rate",
                                   "consumption", "layers",
                                   "total_buffer", "rebuffering"};
  for (int i = 0; i < p.stream_layers; ++i) {
    cols.push_back("buf_L" + std::to_string(i));
  }
  CsvWriter csv(path, cols);
  const auto& pts = r.series.rate.points();
  for (size_t i = 0; i < pts.size(); ++i) {
    std::vector<double> row = {
        pts[i].t.sec(), pts[i].value,
        r.series.consumption.points()[i].value,
        r.series.layers.points()[i].value,
        r.series.total_buffer.points()[i].value,
        r.series.rebuffering.points()[i].value};
    for (int l = 0; l < p.stream_layers; ++l) {
      row.push_back(
          r.series.layer_buffer[static_cast<size_t>(l)].points()[i].value);
    }
    csv.row(row);
  }
  std::printf("wrote %s (%zu rows)\n", path.c_str(), pts.size());
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("help")) {
    usage();
    return 0;
  }

  // A malformed flag value or an unknown --backend throws here, before
  // anything runs, and exits 1 like every other usage error.
  try {
    const std::string out_dir = flags.get_or("out-dir", "");
    ExperimentParams params;
    params.rap_flows = static_cast<int>(flags.get_int("rap-flows", 1));
    params.tcp_flows = static_cast<int>(flags.get_int("tcp-flows", 0));
    params.with_cbr = flags.get_bool("cbr", false);
    // A CBR run defaults to 90 s so the 30-60 s burst and the recovery
    // after it both show.
    params.duration_sec =
        flags.get_double("duration-s", params.with_cbr ? 90 : 20);
    params.seed = static_cast<uint64_t>(flags.get_int("seed", 1));
    params.bottleneck =
        Rate::kilobits_per_sec(flags.get_double("bottleneck-kbps", 240.0));
    params.rtt = TimeDelta::millis(flags.get_int("rtt-ms", 40));
    params.bottleneck_queue_bytes = flags.get_int("queue-bytes", 50'000);
    params.red_bottleneck = flags.get_bool("red", false);
    params.layer_rate =
        Rate::bytes_per_sec(flags.get_double("layer-rate", 10'000.0));
    params.stream_layers = static_cast<int>(flags.get_int("layers", 8));
    params.packet_size = static_cast<int32_t>(flags.get_int("packet", 250));
    params.kmax = static_cast<int>(flags.get_int("kmax", 1));
    if (const auto alloc = flags.get("allocation")) {
      const auto parsed = core::parse_policy(*alloc);
      if (!parsed) {
        std::fprintf(stderr, "qa_trace: unknown allocation policy '%s'\n",
                     alloc->c_str());
        usage();
        return 1;
      }
      params.allocation = *parsed;
    }
    if (flags.has("backend")) {
      params.backend = cc::parse_backend(flags.get_or("backend", "rap"));
    }

    const std::string csv_path = flags.get_or("csv", "");
    const ObservabilityConfig ocfg = observability_flags(flags, out_dir);

    const auto unused = flags.unused();
    if (!unused.empty()) {
      for (const auto& u : unused) {
        std::fprintf(stderr, "unknown flag --%s\n", u.c_str());
      }
      usage();
      return 1;
    }
    if (out_dir.empty()) {
      std::fprintf(stderr, "qa_trace: --out-dir is required\n");
      usage();
      return 1;
    }

    std::filesystem::create_directories(out_dir);

    Observability obs(ocfg);
    obs.manifest().set("tool", "qa_trace");
    obs.manifest().set_args(argc, argv);
    obs.manifest().set_int("seed", static_cast<int64_t>(params.seed));
    obs.manifest().set_number("duration", params.duration_sec);
    obs.manifest().set_number("bottleneck_bytes_per_sec",
                              params.bottleneck.bps());
    obs.manifest().set_number("layer_rate_bytes_per_sec",
                              params.layer_rate.bps());
    obs.manifest().set_int("stream_layers", params.stream_layers);
    obs.manifest().set_int("kmax", params.kmax);
    obs.manifest().set_int("rap_flows", params.rap_flows);
    obs.manifest().set_int("tcp_flows", params.tcp_flows);
    obs.manifest().set("backend", cc::to_string(params.backend));
    params.observability = &obs;

    const ExperimentResult result = run_experiment(params);

    std::printf("run: %.0f s sim, %lld QA packets, %lld losses, "
                "%d drops / %d adds, stall %.2f s\n",
                params.duration_sec,
                static_cast<long long>(result.qa_packets_sent),
                static_cast<long long>(result.qa_losses),
                static_cast<int>(result.metrics.drops().size()),
                static_cast<int>(result.metrics.adds().size()),
                result.client_base_stall.sec());
    std::printf("mean quality %.2f of %d layers, buffering efficiency "
                "%.2f%%, %lld rebuffers (%.3f s paused, worst recovery "
                "%.3f s)\n",
                result.metrics.mean_quality(
                    TimePoint::from_sec(5),
                    TimePoint::from_sec(params.duration_sec)),
                params.stream_layers,
                100 * result.metrics.mean_efficiency(),
                static_cast<long long>(result.rebuffer_events),
                result.rebuffer_time.sec(),
                result.rebuffer_max_recovery.sec());
    if (!csv_path.empty()) write_series_csv(csv_path, params, result);
    std::printf("artifacts in %s: trace.json metrics.csv metrics.json "
                "manifest.json\n\n", out_dir.c_str());
    std::printf("%s", obs.profiler().report().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qa_trace: %s\n", e.what());
    return 1;
  }
}

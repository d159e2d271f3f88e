// qa_sweep — parallel experiment sweep runner.
//
// Fans the cartesian product of the axis flags (seed x Kmax x bottleneck
// bandwidth x RTT x wire-loss rate x fault count x backend, over one base
// scenario)
// across a thread pool, one isolated simulation per grid point, and merges
// the per-scenario summaries into sweep.csv / sweep.json / manifest.json.
// Per-job seeds are derived from grid coordinates (SplitMix64), so the
// output is byte-identical for any --jobs value, and the union of the
// --shard i/k runs equals the unsharded run (see DESIGN.md §12).
//
//   qa_sweep --out-dir /tmp/sweep --kmax 1,2,3,4 --seeds 1,2,3 --jobs 8
//   qa_sweep --preset fig12 --out-dir /tmp/fig12
//   qa_sweep --kmax 1,2 --shard 0/2 --print-digest     # CI shard
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "app/sweep.h"
#include "util/flags.h"
#include "util/host.h"
#include "util/manifest.h"

using namespace qa;
using namespace qa::app;

namespace {

void usage() {
  std::printf(
      "qa_sweep [flags]\n"
      "  Grid axes (comma-separated lists; grid = cartesian product):\n"
      "  --seeds LIST           base RNG seeds (default 1)\n"
      "  --kmax LIST            K_max values (default 2)\n"
      "  --bottleneck-kbps LIST bottleneck bandwidths (default 800)\n"
      "  --rtt-ms LIST          round-trip times (default 40)\n"
      "  --loss LIST            Bernoulli wire-loss rates (default 0)\n"
      "  --faults LIST          random fault counts (default 0)\n"
      "  --backends LIST        QA-flow congestion control backends\n"
      "                         (rap, tfrc, nada; default rap)\n"
      "  Base scenario:\n"
      "  --duration-s SECS      run length (default 20)\n"
      "  --rap-flows N          RAP flows incl. the QA one (default 2)\n"
      "  --tcp-flows N          competing TCP flows (default 2)\n"
      "  --cbr                  add the fig-13 CBR step source\n"
      "  --layers N             stream layers (default 8)\n"
      "  --layer-rate BPS       per-layer consumption C (default 1250)\n"
      "  --preset NAME          fig12 | fig13 (axis/base bundle; explicit\n"
      "                         flags override)\n"
      "  Execution:\n"
      "  --jobs N               worker threads (default: host cores)\n"
      "  --shard I/K            run grid indices congruent to I mod K\n"
      "  --out-dir DIR          write sweep.csv/sweep.json/manifest.json\n"
      "  --print-digest         print the canonical row digest to stdout\n");
}

// "I/K" -> (I, K). Exits with a usage error on malformed input.
bool parse_shard(const std::string& s, int* index, int* count) {
  const size_t slash = s.find('/');
  if (slash == std::string::npos) return false;
  try {
    size_t used = 0;
    *index = std::stoi(s.substr(0, slash), &used);
    if (used != slash) return false;
    const std::string rest = s.substr(slash + 1);
    *count = std::stoi(rest, &used);
    if (used != rest.size()) return false;
  } catch (const std::exception&) {
    return false;
  }
  return *count >= 1 && *index >= 0 && *index < *count;
}

// The paper's headline grids as one sweep invocation each.
void apply_preset(const std::string& name, SweepGrid* grid) {
  if (name == "fig12") {
    // Fig 12: quality stability vs K_max, averaged over seeds.
    grid->kmax = {1, 2, 3, 4};
    grid->seeds = {1, 2, 3, 4, 5};
    grid->base.duration_sec = 40;
  } else if (name == "fig13") {
    // Fig 13: responsiveness to a CBR step, K_max sensitivity.
    grid->kmax = {1, 2, 3, 4};
    grid->seeds = {1, 2, 3};
    grid->base = ExperimentParams::t2(/*kmax=*/4, /*seed=*/1);
  } else {
    throw std::invalid_argument(
        invalid_choice("--preset", name, {"fig12", "fig13"}));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("help")) {
    usage();
    return 0;
  }

  try {
    SweepGrid grid;
    grid.base.rap_flows = 2;
    grid.base.tcp_flows = 2;
    grid.base.duration_sec = 20;

    const std::string preset = flags.get_or("preset", "");
    if (!preset.empty()) apply_preset(preset, &grid);

    if (auto v = flags.get("seeds")) grid.seeds = parse_u64_list(*v);
    if (auto v = flags.get("kmax")) grid.kmax = parse_int_list(*v);
    if (auto v = flags.get("bottleneck-kbps")) {
      grid.bottleneck_kbps = parse_double_list(*v);
    }
    if (auto v = flags.get("rtt-ms")) grid.rtt_ms = parse_double_list(*v);
    if (auto v = flags.get("loss")) grid.loss_rate = parse_double_list(*v);
    if (auto v = flags.get("faults")) grid.faults = parse_int_list(*v);
    if (auto v = flags.get("backends")) {
      grid.backends = parse_backend_list(*v);
    }

    grid.base.duration_sec =
        flags.get_double("duration-s", grid.base.duration_sec);
    grid.base.rap_flows =
        static_cast<int>(flags.get_int("rap-flows", grid.base.rap_flows));
    grid.base.tcp_flows =
        static_cast<int>(flags.get_int("tcp-flows", grid.base.tcp_flows));
    grid.base.with_cbr = flags.get_bool("cbr", grid.base.with_cbr);
    grid.base.stream_layers =
        static_cast<int>(flags.get_int("layers", grid.base.stream_layers));
    grid.base.layer_rate = Rate::bytes_per_sec(
        flags.get_double("layer-rate", grid.base.layer_rate.bps()));

    SweepOptions opts;
    opts.jobs = static_cast<int>(flags.get_int("jobs", host_cpu_count()));
    opts.out_dir = flags.get_or("out-dir", "");
    const std::string shard = flags.get_or("shard", "");
    if (!shard.empty() &&
        !parse_shard(shard, &opts.shard_index, &opts.shard_count)) {
      std::fprintf(stderr, "qa_sweep: bad --shard '%s' (want I/K, 0<=I<K)\n",
                   shard.c_str());
      return 1;
    }
    const bool print_digest = flags.get_bool("print-digest", false);

    const auto unused = flags.unused();
    if (!unused.empty()) {
      for (const auto& u : unused) {
        std::fprintf(stderr, "unknown flag --%s\n", u.c_str());
      }
      usage();
      return 1;
    }

    if (!opts.out_dir.empty()) {
      std::filesystem::create_directories(opts.out_dir);
    }
    const SweepResult result = run_sweep(grid, opts);

    int failed = 0;
    for (const auto& r : result.rows) {
      if (!r.ok) ++failed;
    }
    std::printf(
        "sweep: %zu/%zu scenarios (shard %d/%d), jobs=%d, %.2f s wall, "
        "%d failed\n",
        result.rows.size(), result.grid_size, opts.shard_index,
        opts.shard_count, result.jobs, result.wall_s, failed);
    if (print_digest) {
      std::printf("digest: %016llx\n",
                  static_cast<unsigned long long>(
                      sweep_digest(result.rows)));
    }

    if (!opts.out_dir.empty()) {
      RunManifest manifest;
      manifest.set("tool", "qa_sweep");
      manifest.set_args(argc, argv);
      manifest.set_int("grid_size", static_cast<int64_t>(result.grid_size));
      manifest.set_int("rows", static_cast<int64_t>(result.rows.size()));
      manifest.set_int("jobs", result.jobs);
      manifest.set_int("shard_index", opts.shard_index);
      manifest.set_int("shard_count", opts.shard_count);
      manifest.set_int("failed", failed);
      manifest.set_number("wall_s", result.wall_s);
      manifest.set("digest", [&] {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(
                          sweep_digest(result.rows)));
        return std::string(buf);
      }());
      manifest.write_json(opts.out_dir + "/manifest.json");
      std::printf("artifacts in %s: sweep.csv sweep.json manifest.json\n",
                  opts.out_dir.c_str());
    }

    return failed == 0 ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qa_sweep: %s\n", e.what());
    return 1;
  }
}

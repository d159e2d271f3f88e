// qa_live — run a scenario (or a sweep grid) while serving its metrics
// live over loopback HTTP: a versioned snapshot/delta endpoint, an SSE
// event stream, and a dependency-free HTML console.
//
//   qa_live                                   # fig-2 run, real time, port 0
//   qa_live --port 8080 --duration-s 60       # open http://127.0.0.1:8080/
//   qa_live --pace 4                          # 4x faster than real time
//   qa_live --pace 0 --self-check --out-dir D # free-run + built-in client
//   qa_live --sweep --kmax 1,2,3 --seeds 1,2  # grid with /sweep progress
//
// Endpoints (see DESIGN.md §15 and EXPERIMENTS.md for a walkthrough):
//   GET /                 the console page (no external assets)
//   GET /metrics          full metrics snapshot JSON
//   GET /metrics?since=N  only rows changed after capture N
//   GET /events           SSE stream: "metrics" deltas + "note" events
//   GET /sweep            (sweep mode) {"done", "total", "failed"}
//
// Determinism: the sim thread only copies into the LiveFeed; server
// threads never touch sim objects, so a connected client cannot change
// the run. `--self-check --out-dir A` and `--no-serve --out-dir B` with
// the same seed write byte-identical metrics.json (qa_live_digest ctest).
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "app/experiment.h"
#include "app/obs_flags.h"
#include "app/observability.h"
#include "app/sweep.h"
#include "util/flags.h"
#include "util/host.h"
#include "util/http_sse.h"
#include "util/json.h"

using namespace qa;
using namespace qa::app;

namespace {

void usage() {
  std::printf(
      "qa_live [flags]\n"
      "  Serving:\n"
      "  --port N               listen port (default 0 = ephemeral,\n"
      "                         printed at startup)\n"
      "  --pace F               sim-seconds per wall-second (default 1 =\n"
      "                         real time; 0 = free run, no throttling)\n"
      "  --cadence-ms MS        live snapshot cadence in sim time\n"
      "                         (default 100)\n"
      "  --no-serve             publish into the feed but start no server\n"
      "                         (digest-parity reference run)\n"
      "  --live-journeys        also stream packet-journey milestones as\n"
      "                         \"journey\" SSE events (opt-in: per-packet\n"
      "                         volume)\n"
      "  --self-check           probe /metrics, /events, and / from a\n"
      "                         client thread; exit nonzero on failure\n"
      "  Scenario (as qa_trace):\n"
      "  --duration-s SECS      run length (default 20)\n"
      "  --seed N               RNG seed (default 1)\n"
      "  --bottleneck-kbps K    bottleneck bandwidth (default 240)\n"
      "  --layer-rate BPS       per-layer consumption C (default 10000)\n"
      "  --layers N             stream layers (default 8)\n"
      "  --kmax N               max backoffs survivable (default 1)\n"
      "  --rap-flows N          RAP flows incl. the QA one (default 1)\n"
      "  --tcp-flows N          competing TCP flows (default 0)\n"
      "  --faults N             random fault-schedule intensity (default 0)\n"
      "  --out-dir DIR          also write the qa_trace artifact bundle\n"
      "%s"
      "  Sweep mode (axis lists as qa_sweep):\n"
      "  --sweep                run a grid instead of one scenario\n"
      "  --seeds LIST           base RNG seeds (default 1)\n"
      "  --jobs N               worker threads (default: host cores)\n"
      "  (--kmax/--bottleneck-kbps/--faults accept comma lists here;\n"
      "   --rtt-ms and --loss add the remaining axes)\n",
      observability_flags_usage());
}

// The console page: plain HTML + inline script, no external assets. It
// subscribes to /events, folds "metrics" deltas into a table, appends
// "note" events to a log, and draws live.rap.rate_bytes_per_sec as an
// inline-SVG sparkline (the paper's rate sawtooth, live).
constexpr const char kIndexHtml[] = R"html(<!doctype html>
<html><head><meta charset="utf-8"><title>qa_live</title><style>
body{font:13px/1.45 monospace;margin:1.2em;background:#111;color:#ddd}
h1{font-size:16px;margin:0 0 .3em}
#status{color:#8c8}
table{border-collapse:collapse;margin-top:.8em}
td,th{border:1px solid #333;padding:1px 8px;text-align:left}
th{color:#9cf}
td.num{text-align:right}
#log{margin-top:.8em;max-height:14em;overflow-y:auto;border:1px solid #333;
     padding:4px;white-space:pre}
svg{background:#181818;border:1px solid #333;margin-top:.8em}
#spark path{fill:none;stroke:#fc6;stroke-width:1.5}
#heat{margin-top:.8em;line-height:0}
#heat span{display:inline-block;width:12px;height:12px;margin:1px}
#heat .c0{background:#333}#heat .c1{background:#fc6}
#heat .c2{background:#4a4}#heat .c3{background:#c33}
</style></head><body>
<h1>qa_live</h1>
<div id="status">connecting&hellip;</div>
<svg id="spark" width="640" height="90" viewBox="0 0 640 90">
  <path id="sparkpath" d=""></path></svg>
<div>live.rap.rate_bytes_per_sec (<span id="sparklast">-</span> B/s)</div>
<div id="heat"></div>
<div id="log"></div>
<table><thead><tr><th>metric</th><th>kind</th><th>value</th><th>count</th>
</tr></thead><tbody id="rows"></tbody></table>
<script>
"use strict";
var rows = new Map();
var rates = [];
function fmt(v) {
  if (typeof v !== "number") return String(v);
  return Math.abs(v) >= 1000 ? v.toFixed(0) : v.toPrecision(4);
}
function render() {
  var names = Array.from(rows.keys()).sort();
  var html = "";
  for (var i = 0; i < names.length; i++) {
    var r = rows.get(names[i]);
    html += "<tr><td>" + names[i] + "</td><td>" + r.kind +
            "</td><td class=num>" + fmt(r.value) + "</td><td class=num>" +
            (r.kind === "histogram" ? r.count : "") + "</td></tr>";
  }
  document.getElementById("rows").innerHTML = html;
}
function sparkline() {
  if (rates.length < 2) return;
  var w = 640, h = 90, pad = 4;
  var max = Math.max.apply(null, rates) || 1;
  var d = "";
  for (var i = 0; i < rates.length; i++) {
    var x = pad + (w - 2 * pad) * i / (rates.length - 1);
    var y = h - pad - (h - 2 * pad) * rates[i] / max;
    d += (i ? "L" : "M") + x.toFixed(1) + " " + y.toFixed(1);
  }
  document.getElementById("sparkpath").setAttribute("d", d);
  document.getElementById("sparklast").textContent =
      fmt(rates[rates.length - 1]);
}
function logline(text) {
  var el = document.getElementById("log");
  el.textContent += text + "\n";
  el.scrollTop = el.scrollHeight;
}
var es = new EventSource("/events");
es.onopen = function () {
  document.getElementById("status").textContent = "live";
};
es.addEventListener("metrics", function (e) {
  var j = JSON.parse(e.data);
  var names = Object.keys(j.metrics);
  for (var i = 0; i < names.length; i++) {
    rows.set(names[i], j.metrics[names[i]]);
  }
  var rate = rows.get("live.rap.rate_bytes_per_sec");
  if (rate) {
    rates.push(rate.value);
    if (rates.length > 400) rates.shift();
    sparkline();
  }
  document.getElementById("status").textContent =
      "live (capture " + j.seq + ", " + rows.size + " metrics)";
  render();
});
es.addEventListener("note", function (e) {
  var j = JSON.parse(e.data);
  logline("t=" + j.t.toFixed(3) + "s " + j.kind + " " +
          JSON.stringify(j.detail));
});
var cells = [], heatCols = 0;
function heatSize(total) {
  if (cells.length === total) return;
  cells = new Array(total);
  for (var i = 0; i < total; i++) cells[i] = 0;
  heatCols = 1;
  while (heatCols * heatCols < total) heatCols++;
}
function drawHeat() {
  var html = "";
  for (var i = 0; i < cells.length; i++) {
    html += "<span class='c" + cells[i] + "' title='" + i + "'></span>";
    if ((i + 1) % heatCols === 0) html += "<br>";
  }
  document.getElementById("heat").innerHTML = html;
}
es.addEventListener("sweep.start", function (e) {
  var j = JSON.parse(e.data);
  heatSize(j.total);
  if (cells[j.index] === 0) cells[j.index] = 1;
  drawHeat();
});
es.addEventListener("sweep.progress", function (e) {
  var j = JSON.parse(e.data);
  heatSize(j.total);
  cells[j.index] = j.ok ? 2 : 3;
  drawHeat();
  logline("sweep " + j.done + "/" + j.total + " index " + j.index +
          (j.ok ? "" : " FAILED"));
  document.getElementById("status").textContent =
      "sweep " + j.done + "/" + j.total;
});
es.addEventListener("journey", function (e) {
  var j = JSON.parse(e.data);
  logline("t=" + j.t.toFixed(3) + "s journey " + j.stage + " flow " +
          j.flow + " layer " + j.layer + " seq " + j.seq);
});
es.addEventListener("run.done", function (e) {
  document.getElementById("status").textContent = "run finished";
  logline("-- run finished --");
  es.close();
});
es.addEventListener("bye", function (e) { es.close(); });
</script></body></html>
)html";

// Wall-clock pacer injected into the LiveHub: anchors real time at the
// first tick, then sleeps so `pace` sim-seconds pass per wall-second.
// Wall clocks are confined to this tool (DESIGN.md §15); app/sim code
// only sees the opaque callback.
std::function<void(TimePoint)> make_pacer(double pace) {
  if (pace <= 0) return nullptr;  // free run
  struct State {
    bool anchored = false;
    std::chrono::steady_clock::time_point anchor;
    TimePoint t0;
  };
  auto state = std::make_shared<State>();
  return [state, pace](TimePoint t) {
    const auto now = std::chrono::steady_clock::now();
    if (!state->anchored) {
      state->anchored = true;
      state->anchor = now;
      state->t0 = t;
      return;
    }
    const double wall_target_s = (t - state->t0).sec() / pace;
    std::this_thread::sleep_until(
        state->anchor + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(wall_target_s)));
  };
}

// ---- Flag parsing (before the server starts, so typos fail fast) -----------

struct ScenarioSpec {
  ExperimentParams params;
  ObservabilityConfig ocfg;
  std::string out_dir;
};

ScenarioSpec parse_scenario(const Flags& flags) {
  ScenarioSpec s;
  s.out_dir = flags.get_or("out-dir", "");
  s.params.rap_flows = static_cast<int>(flags.get_int("rap-flows", 1));
  s.params.tcp_flows = static_cast<int>(flags.get_int("tcp-flows", 0));
  s.params.duration_sec = flags.get_double("duration-s", 20.0);
  s.params.seed = static_cast<uint64_t>(flags.get_int("seed", 1));
  s.params.bottleneck =
      Rate::kilobits_per_sec(flags.get_double("bottleneck-kbps", 240.0));
  s.params.layer_rate =
      Rate::bytes_per_sec(flags.get_double("layer-rate", 10'000.0));
  s.params.stream_layers = static_cast<int>(flags.get_int("layers", 8));
  s.params.kmax = static_cast<int>(flags.get_int("kmax", 1));
  s.params.random_faults = static_cast<int>(flags.get_int("faults", 0));

  s.ocfg = observability_flags(flags, s.out_dir);
  s.ocfg.live.cadence =
      TimeDelta::from_sec(flags.get_double("cadence-ms", 100.0) / 1000.0);
  s.ocfg.live.journey_events = flags.get_bool("live-journeys", false);
  // The pacer throttles whether or not a server is up: --no-serve must
  // replay the exact same event sequence as a served run, so only the
  // client connection may differ between digest-compared runs.
  s.ocfg.live.pacer = make_pacer(flags.get_double("pace", 1.0));
  return s;
}

struct SweepSpec {
  SweepGrid grid;
  SweepOptions opts;
};

SweepSpec parse_sweep(const Flags& flags) {
  SweepSpec s;
  s.grid.base.rap_flows =
      static_cast<int>(flags.get_int("rap-flows", 2));
  s.grid.base.tcp_flows =
      static_cast<int>(flags.get_int("tcp-flows", 2));
  s.grid.base.duration_sec = flags.get_double("duration-s", 20.0);
  s.grid.base.stream_layers =
      static_cast<int>(flags.get_int("layers", s.grid.base.stream_layers));
  s.grid.base.layer_rate = Rate::bytes_per_sec(
      flags.get_double("layer-rate", s.grid.base.layer_rate.bps()));

  if (auto v = flags.get("seeds")) s.grid.seeds = parse_u64_list(*v);
  if (auto v = flags.get("kmax")) s.grid.kmax = parse_int_list(*v);
  if (auto v = flags.get("bottleneck-kbps")) {
    s.grid.bottleneck_kbps = parse_double_list(*v);
  }
  if (auto v = flags.get("rtt-ms")) s.grid.rtt_ms = parse_double_list(*v);
  if (auto v = flags.get("loss")) s.grid.loss_rate = parse_double_list(*v);
  if (auto v = flags.get("faults")) s.grid.faults = parse_int_list(*v);

  s.opts.jobs = static_cast<int>(flags.get_int("jobs", host_cpu_count()));
  s.opts.out_dir = flags.get_or("out-dir", "");
  return s;
}

// ---- Self-check -------------------------------------------------------------

struct SelfCheckSpec {
  uint16_t port = 0;
  bool expect_metrics = true;  // scenario mode: wait for a populated snapshot
  bool check_sweep = false;    // sweep mode: probe /sweep too
};

struct SelfCheckResult {
  bool ok = true;
  std::string log;
};

// The built-in client, run on its own thread concurrently with the sim.
// Every probe goes through the public socket API — this is an end-to-end
// exercise of exactly what curl sees, and doubles as the proof that a
// connected client leaves the digest unchanged (qa_live_digest ctest).
SelfCheckResult run_self_check(const SelfCheckSpec& spec) {
  SelfCheckResult r;
  auto note = [&r](bool ok, const std::string& what) {
    r.ok = r.ok && ok;
    r.log += std::string(ok ? "  ok   " : "  FAIL ") + what + "\n";
  };

  // /metrics — retry until the first capture has been published (the
  // feed's snapshot double buffer starts empty at seq 0).
  std::string body;
  bool got = false;
  for (int i = 0; i < 100 && !got; ++i) {
    body.clear();
    got = http_get(spec.port, "/metrics", &body) &&
          body.find("\"seq\"") != std::string::npos &&
          (!spec.expect_metrics ||
           body.find("\"metrics\": {\"") != std::string::npos);
    if (!got) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  note(got, "/metrics returns a snapshot");

  body.clear();
  note(http_get(spec.port, "/metrics?since=0", &body) &&
           body.find("\"since\": 0") != std::string::npos,
       "/metrics?since=0 echoes the cursor");

  // /events — the ring replays from cursor 0, so the "hello" frame
  // published at startup is always available.
  std::vector<SseFrame> frames;
  const bool sse_ok = sse_read(spec.port, "/events", 1, 5000, &frames) &&
                      !frames.empty() && frames[0].id >= 1;
  note(sse_ok, "/events delivers a well-formed SSE frame");

  std::string status;
  body.clear();
  note(http_get(spec.port, "/", &body, &status) &&
           body.find("<html") != std::string::npos,
       "/ serves the console page");

  status.clear();
  body.clear();
  note(http_get(spec.port, "/does-not-exist", &body, &status) &&
           status.find("404") != std::string::npos,
       "unknown path yields 404");

  if (spec.check_sweep) {
    body.clear();
    note(http_get(spec.port, "/sweep", &body) &&
             body.find("\"total\"") != std::string::npos &&
             body.find("\"cells\"") != std::string::npos,
         "/sweep reports progress and the cell heatmap");
  }
  return r;
}

// ---- Run modes --------------------------------------------------------------

int run_scenario(ScenarioSpec spec, LiveFeed* feed, bool serving,
                 int argc, char** argv) {
  spec.ocfg.live.feed = feed;
  if (!spec.out_dir.empty()) {
    std::filesystem::create_directories(spec.out_dir);
  }

  Observability obs(spec.ocfg);
  obs.manifest().set("tool", "qa_live");
  obs.manifest().set_args(argc, argv);
  obs.manifest().set_int("seed", static_cast<int64_t>(spec.params.seed));
  obs.manifest().set_number("duration", spec.params.duration_sec);
  obs.manifest().set_number("bottleneck_bytes_per_sec",
                            spec.params.bottleneck.bps());
  obs.manifest().set_int("stream_layers", spec.params.stream_layers);
  obs.manifest().set_int("kmax", spec.params.kmax);
  obs.manifest().set_int("random_faults", spec.params.random_faults);
  obs.manifest().set_int("served", serving ? 1 : 0);
  spec.params.observability = &obs;

  const ExperimentResult result = run_experiment(spec.params);

  std::printf("run: %.0f s sim, %lld QA packets, %lld losses, "
              "%d drops / %d adds, %llu live events\n",
              spec.params.duration_sec,
              static_cast<long long>(result.qa_packets_sent),
              static_cast<long long>(result.qa_losses),
              static_cast<int>(result.metrics.drops().size()),
              static_cast<int>(result.metrics.adds().size()),
              static_cast<unsigned long long>(feed->events_published()));
  if (!spec.out_dir.empty()) {
    std::printf("artifacts in %s: trace.json metrics.csv metrics.json "
                "manifest.json\n", spec.out_dir.c_str());
  }
  return 0;
}

// Progress shared between sweep workers (writers) and the /sweep handler
// (server threads): everything behind one mutex. `cells` holds one state
// per grid point (0 pending, 1 running, 2 ok, 3 failed) — the console's
// heatmap — and `cols` is the display wrap width (≈ sqrt of the grid).
struct SweepProgress {
  std::mutex mu;
  size_t done = 0;
  size_t total = 0;
  size_t failed = 0;
  size_t cols = 0;
  std::vector<uint8_t> cells;
};

int run_sweep_mode(SweepSpec spec, LiveFeed* feed, SweepProgress* progress,
                   int argc, char** argv) {
  if (!spec.opts.out_dir.empty()) {
    std::filesystem::create_directories(spec.opts.out_dir);
  }
  {
    std::lock_guard<std::mutex> lock(progress->mu);
    progress->total = spec.grid.size();
    progress->cells.assign(progress->total, 0);
    progress->cols = 1;
    while (progress->cols * progress->cols < progress->total) ++progress->cols;
  }
  // Worker threads land here concurrently; the mutex covers the counters
  // and publish_event is itself thread-safe.
  spec.opts.on_job_start = [feed, progress](size_t index) {
    size_t total;
    {
      std::lock_guard<std::mutex> lock(progress->mu);
      if (index < progress->cells.size() && progress->cells[index] == 0) {
        progress->cells[index] = 1;
      }
      total = progress->total;
    }
    feed->publish_event(
        "sweep.start",
        "{\"index\": " + json_number(static_cast<int64_t>(index)) +
            ", \"total\": " + json_number(static_cast<int64_t>(total)) + "}");
  };
  spec.opts.on_progress = [feed, progress](const SweepRow& row, size_t done,
                                           size_t total) {
    {
      std::lock_guard<std::mutex> lock(progress->mu);
      progress->done = done;
      if (!row.ok) ++progress->failed;
      if (row.index < progress->cells.size()) {
        progress->cells[row.index] = row.ok ? 2 : 3;
      }
    }
    feed->publish_event(
        "sweep.progress",
        "{\"index\": " + json_number(static_cast<int64_t>(row.index)) +
            ", \"done\": " + json_number(static_cast<int64_t>(done)) +
            ", \"total\": " + json_number(static_cast<int64_t>(total)) +
            ", \"ok\": " + (row.ok ? "true" : "false") +
            ", \"mean_layers\": " + json_number(row.mean_layers) + "}");
  };

  const SweepResult result = run_sweep(spec.grid, spec.opts);

  int failed = 0;
  for (const auto& r : result.rows) {
    if (!r.ok) ++failed;
  }
  std::printf("sweep: %zu/%zu scenarios, jobs=%d, %.2f s wall, %d failed, "
              "%llu live events\n",
              result.rows.size(), result.grid_size, result.jobs,
              result.wall_s, failed,
              static_cast<unsigned long long>(feed->events_published()));
  if (!spec.opts.out_dir.empty()) {
    RunManifest manifest;
    manifest.set("tool", "qa_live");
    manifest.set_args(argc, argv);
    manifest.set_int("grid_size", static_cast<int64_t>(result.grid_size));
    manifest.set_int("failed", failed);
    manifest.set_number("wall_s", result.wall_s);
    manifest.write_json(spec.opts.out_dir + "/manifest.json");
  }
  return failed == 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("help")) {
    usage();
    return 0;
  }

  try {
    const bool sweep_mode = flags.get_bool("sweep", false);
    const bool no_serve = flags.get_bool("no-serve", false);
    const bool self_check = flags.get_bool("self-check", false);
    const uint16_t port = static_cast<uint16_t>(flags.get_int("port", 0));

    if (self_check && no_serve) {
      std::fprintf(stderr, "qa_live: --self-check needs a server "
                           "(drop --no-serve)\n");
      return 1;
    }

    ScenarioSpec scenario;
    SweepSpec sweep;
    if (sweep_mode) {
      sweep = parse_sweep(flags);
    } else {
      scenario = parse_scenario(flags);
    }
    const auto unused = flags.unused();
    if (!unused.empty()) {
      for (const auto& u : unused) {
        std::fprintf(stderr, "unknown flag --%s\n", u.c_str());
      }
      usage();
      return 1;
    }

    LiveFeed feed;
    SweepProgress progress;

    HttpSseServer server(&feed);
    server.set_index_html(kIndexHtml);
    if (sweep_mode) {
      // Sweep workers run isolated simulations without an Observability
      // hub, so /metrics stays at the empty default snapshot; /sweep and
      // the sweep.progress events are the live surface here.
      server.handle("/sweep", [&progress](const std::string&) {
        HttpResponse resp;
        resp.content_type = "application/json";
        std::lock_guard<std::mutex> lock(progress.mu);
        std::string cells = "[";
        for (size_t i = 0; i < progress.cells.size(); ++i) {
          if (i != 0) cells += ", ";
          cells += json_number(static_cast<int64_t>(progress.cells[i]));
        }
        cells += "]";
        resp.body =
            "{\"done\": " + json_number(static_cast<int64_t>(progress.done)) +
            ", \"total\": " +
            json_number(static_cast<int64_t>(progress.total)) +
            ", \"failed\": " +
            json_number(static_cast<int64_t>(progress.failed)) +
            ", \"cols\": " + json_number(static_cast<int64_t>(progress.cols)) +
            ", \"cells\": " + cells + "}\n";
        return resp;
      });
    }

    if (!no_serve) {
      if (!server.start(port)) {
        std::fprintf(stderr, "qa_live: cannot bind 127.0.0.1:%u\n",
                     static_cast<unsigned>(port));
        return 1;
      }
      std::printf("qa_live: serving http://127.0.0.1:%u/  "
                  "(/metrics, /events%s)\n",
                  static_cast<unsigned>(server.port()),
                  sweep_mode ? ", /sweep" : "");
      std::fflush(stdout);
    }
    // Always in the ring (replayed to any client, early or late), so
    // /events has at least one frame the moment the server is up.
    feed.publish_event(
        "hello", std::string("{\"tool\": \"qa_live\", \"mode\": ") +
                     (sweep_mode ? "\"sweep\"" : "\"scenario\"") + "}");

    std::thread checker;
    SelfCheckResult check;
    if (self_check) {
      SelfCheckSpec spec;
      spec.port = server.port();
      spec.expect_metrics = !sweep_mode;
      spec.check_sweep = sweep_mode;
      checker = std::thread([spec, &check] { check = run_self_check(spec); });
    }

    const int rc =
        sweep_mode
            ? run_sweep_mode(std::move(sweep), &feed, &progress, argc, argv)
            : run_scenario(std::move(scenario), &feed, !no_serve, argc, argv);

    feed.publish_event("run.done", "{}");
    if (checker.joinable()) checker.join();
    feed.close();
    server.stop();

    if (self_check) {
      std::printf("self-check:\n%s", check.log.c_str());
      if (!check.ok) return 1;
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qa_live: %s\n", e.what());
    return 1;
  }
}

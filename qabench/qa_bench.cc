// qa_bench — the measuring half of the qabench benchmark (run.py is the
// other half: it builds this binary, checks digests against the pins,
// computes the statistics, and prints the result line).
//
//   qa_bench timed   --workload W --seed N --seconds S --out DIR
//   qa_bench traced  --workload W --seed N --seconds S --out DIR
//   qa_bench digests --workload W --seed N --out DIR
//
// timed:   repeated set-ups at the smallest simulated duration, then
//          full-size repetitions of the workload until S seconds of wall
//          time are spent. No instrumentation is attached beyond what the
//          workload itself defines. Prints one JSON object with every
//          sample and every scenario digest.
// traced:  the per-layer pass — layer probes, the scheduler profiler,
//          ObservabilityConfig toggles, sweep hook timings, and spans
//          around every call into a layer. Writes DIR/trace_pass.json
//          and prints the per-layer metrics as one JSON object.
// digests: one untimed pass; prints the scenario digests (for pinning).
//
// Only public entry points of the libraries are called; see NOTES.md for
// why each workload exists and which layer each metric isolates.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "app/experiment.h"
#include "app/farm.h"
#include "app/observability.h"
#include "app/sweep.h"
#include "app/video_client.h"
#include "core/buffer_math.h"
#include "sim/flow.h"
#include "sim/link.h"
#include "sim/node.h"
#include "sim/queue.h"
#include "sim/scheduler.h"
#include "tracedrive/bandwidth_trace.h"
#include "util/flags.h"
#include "util/host.h"
#include "util/json.h"
#include "util/metrics_registry.h"
#include "util/rng.h"
#include "util/rundiff.h"

namespace fs = std::filesystem;
using namespace qa;

namespace {

// ---- Clocks and costs. -----------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// getrusage user+sys CPU of the whole process (all threads).
double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

struct Cost {
  double wall_s = 0;
  double cpu_s = 0;
};

// Accumulates the cost of the calls it runs; work outside run() (digest
// computation, input generation) is not counted.
class Stopwatch {
 public:
  template <typename F>
  void run(F&& f) {
    const double w0 = wall_now();
    const double c0 = cpu_now();
    f();
    total_.cpu_s += cpu_now() - c0;
    total_.wall_s += wall_now() - w0;
  }
  const Cost& total() const { return total_; }

 private:
  Cost total_;
};

// ---- Spans: the benchmark's own trace around calls into each layer. --------
//
// Kept in memory and written with the traced pass's artifact; a span's
// parent is the span open when it started.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_ms = 0;
    double end_ms = 0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(log) {
      index_ = static_cast<int>(log_.spans_.size());
      log_.spans_.push_back(
          Span{std::move(name), log_.now_ms(), 0, log_.open_});
      log_.open_ = index_;
    }
    ~Scope() {
      log_.spans_[static_cast<size_t>(index_)].end_ms = log_.now_ms();
      log_.open_ = log_.spans_[static_cast<size_t>(index_)].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_ = -1;
  };

  std::string to_json() const {
    std::string out = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",";
      out += "{\"id\":" + json_number(static_cast<int64_t>(i)) +
             ",\"name\":" + json_quote(s.name) +
             ",\"start_ms\":" + json_number(s.start_ms) +
             ",\"end_ms\":" + json_number(s.end_ms) +
             ",\"parent\":" + json_number(static_cast<int64_t>(s.parent)) +
             "}";
    }
    return out + "]";
  }

 private:
  double now_ms() const { return (wall_now() - origin_) * 1e3; }

  double origin_ = wall_now();
  std::vector<Span> spans_;
  int open_ = -1;
};

// ---- Digests. ----------------------------------------------------------------

std::string hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void put_field(RunFields& f, const std::string& name, double v) {
  f[name + ".value"] = RunField{"gauge", "value", std::isfinite(v) ? v : 0,
                                !std::isfinite(v)};
}

double series_sum(const TimeSeries& s) {
  double sum = 0;
  for (const auto& p : s.points()) sum += p.value;
  return sum;
}

void put_series(RunFields& f, const std::string& prefix,
                const tracedrive::RunSeries& s) {
  put_field(f, prefix + "series.rate_sum", series_sum(s.rate));
  put_field(f, prefix + "series.layers_sum", series_sum(s.layers));
  put_field(f, prefix + "series.total_buffer_sum", series_sum(s.total_buffer));
  put_field(f, prefix + "series.points",
            static_cast<double>(s.total_buffer.size()));
  for (size_t l = 0; l < s.layer_buffer.size(); ++l) {
    put_field(f, prefix + "series.layer" + std::to_string(l) + "_buffer_sum",
              series_sum(s.layer_buffer[l]));
  }
}

void put_adapter(RunFields& f, const std::string& prefix,
                 const core::AdapterMetrics& m) {
  put_field(f, prefix + "drops", static_cast<double>(m.drops().size()));
  put_field(f, prefix + "adds", static_cast<double>(m.adds().size()));
  put_field(f, prefix + "mean_efficiency", m.mean_efficiency());
}

// Canonical digest of everything a fig-2 run returns: transport totals,
// client ground truth, adapter decisions and exact series fingerprints.
uint64_t experiment_digest(const app::ExperimentResult& r) {
  RunFields f;
  put_field(f, "qa.packets_sent", static_cast<double>(r.qa_packets_sent));
  put_field(f, "qa.losses", static_cast<double>(r.qa_losses));
  put_field(f, "qa.backoffs", static_cast<double>(r.qa_backoffs));
  put_field(f, "qa.mean_rate_bps", r.qa_mean_rate_bps);
  put_field(f, "qa.base_stall_s", r.client_base_stall.sec());
  put_field(f, "qa.rebuffer_events", static_cast<double>(r.rebuffer_events));
  put_field(f, "qa.rebuffer_s", r.rebuffer_time.sec());
  put_field(f, "qa.final_mirror_buffer", r.final_mirror_total_buffer);
  put_field(f, "qa.final_client_buffer", r.final_client_total_buffer);
  put_field(f, "qa.rap_competitor_bps", r.mean_rap_competitor_rate_bps);
  put_field(f, "qa.tcp_bps", r.mean_tcp_rate_bps);
  put_adapter(f, "qa.", r.metrics);
  put_series(f, "qa.", r.series);
  return canonical_digest(f, RunDiffRules{});
}

uint64_t trace_run_digest(const tracedrive::TraceRunResult& r) {
  RunFields f;
  put_field(f, "replay.packets_sent", static_cast<double>(r.packets_sent));
  put_field(f, "replay.base_stall_s", r.base_stall.sec());
  put_field(f, "replay.underflow_events",
            static_cast<double>(r.underflow_events));
  put_adapter(f, "replay.", r.metrics);
  put_series(f, "replay.", r.series);
  return canonical_digest(f, RunDiffRules{});
}

// rundiff canonical digest of a metrics.json artifact (host-time gauges
// ignored by the default rules).
std::string metrics_file_digest(const std::string& path) {
  RunFields fields;
  std::string error;
  if (!load_run_fields(path, &fields, &error)) return "error:" + error;
  return hex(canonical_digest(fields, RunDiffRules{}));
}

// ---- Workload outputs. -------------------------------------------------------

struct Outcome {
  std::string scenario;  // stable label, e.g. "rap" or "k2.s3"
  std::string digest;    // "error:..." when the scenario threw
  int64_t packets = 0;   // QA-flow packets
  double sim_s = 0;      // simulated seconds
};

struct Rep {
  Cost cost;
  std::vector<Outcome> outcomes;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

// Runs `f` and records its failure as an error digest instead of throwing.
template <typename F>
Outcome guarded(const std::string& scenario, F&& f) {
  try {
    Outcome o = f();
    o.scenario = scenario;
    return o;
  } catch (const std::exception& e) {
    return Outcome{scenario, std::string("error:") + e.what(), 0, 0};
  }
}

// ---- farm_churn500 ------------------------------------------------------------

// qa_farm --preset churn500, seeded. Six farms per repetition (seeds
// N + 1000 i) so one unlucky arrival pattern cannot set the figure.
constexpr int kFarmInputs = 6;

app::FarmParams churn500(uint64_t seed, TimeDelta duration) {
  app::FarmParams p;
  p.seed = seed;
  p.slots = 96;
  p.duration = duration;
  p.bottleneck_bw = Rate::kilobytes_per_sec(400);
  p.stream_layers = 4;
  p.layer_rate = Rate::kilobytes_per_sec(2.5);
  p.packet_size = 500;
  p.arrival_rate_hz = 0.8;
  p.mean_session = TimeDelta::seconds(45);
  p.flash_crowd_at = TimeDelta::seconds(120);
  p.flash_crowd_arrivals = 40;
  p.mass_departure_at = TimeDelta::seconds(300);
  p.mass_departure_fraction = 0.5;
  return p;
}

uint64_t farm_seed(uint64_t seed, int i) {
  return seed + 1000u * static_cast<uint64_t>(i);
}

struct FarmCounts {
  int64_t arrivals = 0, admitted = 0, shed = 0, peak_active = 0, packets = 0;
};

// One repetition. With `with_registry`, every farm folds its metrics into a
// fresh registry (the farm's own instrumentation, used by the traced pass).
Rep farm_rep(uint64_t seed, TimeDelta duration, bool with_registry,
             FarmCounts* counts, SpanLog* spans) {
  Rep rep;
  Stopwatch sw;
  for (int i = 0; i < kFarmInputs; ++i) {
    const uint64_t s = farm_seed(seed, i);
    rep.outcomes.push_back(guarded("farm" + std::to_string(s), [&] {
      app::FarmParams p = churn500(s, duration);
      MetricsRegistry registry;
      if (with_registry) p.registry = &registry;
      app::FarmResult r;
      std::unique_ptr<SpanLog::Scope> span;
      if (spans) span = std::make_unique<SpanLog::Scope>(*spans, "app.run_farm");
      sw.run([&] { r = app::run_farm(p); });
      span.reset();
      if (counts) {
        counts->arrivals += r.arrivals;
        counts->admitted += r.admitted;
        counts->shed += r.shed;
        counts->peak_active = std::max<int64_t>(counts->peak_active,
                                                r.peak_active);
        counts->packets += r.total_packets_received;
      }
      return Outcome{"", hex(app::farm_digest(r)), r.total_packets_received,
                     duration.sec()};
    }));
  }
  rep.cost = sw.total();
  return rep;
}

// ---- fig2_observed ------------------------------------------------------------

constexpr double kFig2Seconds = 20;

// The qa_trace default scenario: one QA flow alone on a 240 kb/s
// bottleneck, 8 layers of C = 10 kB/s, Kmax 1. Nothing in it is random, so
// the seed does not change the result.
app::ExperimentParams fig2(cc::Backend backend, uint64_t seed,
                           double duration) {
  app::ExperimentParams p;
  p.backend = backend;
  p.rap_flows = 1;
  p.tcp_flows = 0;
  p.duration_sec = duration;
  p.seed = seed;
  p.bottleneck = Rate::kilobits_per_sec(240);
  p.layer_rate = Rate::bytes_per_sec(10'000);
  p.stream_layers = 8;
  p.kmax = 1;
  return p;
}

// Observability configurations toggled by the traced pass. kFull is the
// workload itself (every sink on, artifacts written).
enum class ObsMode { kFull, kNoTrace, kNoJourneys, kProfileOnly, kBare };

const char* obs_mode_name(ObsMode m) {
  switch (m) {
    case ObsMode::kFull: return "full";
    case ObsMode::kNoTrace: return "no_trace";
    case ObsMode::kNoJourneys: return "no_journeys";
    case ObsMode::kProfileOnly: return "profile_only";
    case ObsMode::kBare: return "bare";
  }
  return "?";
}

struct Fig2Run {
  app::ExperimentResult result;
  Cost cost;
  sim::SchedulerProfiler profiler;  // copy of the hub's (empty when off)
  std::string out_dir;
};

Fig2Run run_fig2(cc::Backend backend, uint64_t seed, double duration,
                 ObsMode mode, const std::string& out_root) {
  Fig2Run run;
  app::ExperimentParams p = fig2(backend, seed, duration);
  Stopwatch sw;
  if (mode == ObsMode::kBare) {
    sw.run([&] { run.result = app::run_experiment(p); });
  } else {
    app::ObservabilityConfig cfg;
    if (mode == ObsMode::kProfileOnly) {
      cfg.trace = cfg.metrics = cfg.journeys = cfg.flightrec = false;
    } else {
      run.out_dir = out_root + "/" + cc::to_string(backend) + "_" +
                    obs_mode_name(mode);
      // Every run writes fresh files, as into a new --out-dir. Rewriting
      // in place would time the file system's truncate-and-flush of the
      // previous run's artifacts instead.
      fs::remove_all(run.out_dir);
      fs::create_directories(run.out_dir);
      cfg.out_dir = run.out_dir;
      cfg.trace = mode != ObsMode::kNoTrace;
      cfg.journeys = mode != ObsMode::kNoJourneys;
    }
    sw.run([&] {
      app::Observability obs(cfg);
      obs.manifest().set("tool", "qa_bench");
      obs.manifest().set("backend", cc::to_string(backend));
      obs.manifest().set_int("seed", static_cast<int64_t>(seed));
      obs.manifest().set_number("duration", duration);
      p.observability = &obs;
      run.result = app::run_experiment(p);
      run.profiler = obs.profiler();
    });
  }
  run.cost = sw.total();
  return run;
}

// The scenario digest of a fully observed fig-2 run: the result digest
// plus the rundiff digest of its metrics.json.
std::string fig2_digest(const Fig2Run& run) {
  std::string d = hex(experiment_digest(run.result));
  if (!run.out_dir.empty()) {
    d += ":" + metrics_file_digest(run.out_dir + "/metrics.json");
  }
  return d;
}

Rep fig2_rep(uint64_t seed, double duration, const std::string& out) {
  Rep rep;
  for (cc::Backend b : cc::all_backends()) {
    Cost cost;
    rep.outcomes.push_back(guarded(cc::to_string(b), [&] {
      const Fig2Run run = run_fig2(b, seed, duration, ObsMode::kFull, out);
      cost = run.cost;
      return Outcome{"", fig2_digest(run), run.result.qa_packets_sent,
                     duration};
    }));
    rep.cost.wall_s += cost.wall_s;
    rep.cost.cpu_s += cost.cpu_s;
  }
  return rep;
}

// Observing never changes the result: bare and fully observed runs of each
// backend must produce the same result digest.
std::vector<Check> fig2_parity(uint64_t seed, const std::string& out) {
  std::vector<Check> checks;
  for (cc::Backend b : cc::all_backends()) {
    Check c{std::string("parity.") + cc::to_string(b), false, ""};
    try {
      const uint64_t bare = experiment_digest(
          run_fig2(b, seed, kFig2Seconds, ObsMode::kBare, out).result);
      const uint64_t full = experiment_digest(
          run_fig2(b, seed, kFig2Seconds, ObsMode::kFull, out).result);
      c.ok = bare == full;
      c.detail = hex(bare) + (c.ok ? " == " : " != ") + hex(full);
    } catch (const std::exception& e) {
      c.detail = e.what();
    }
    checks.push_back(c);
  }
  return checks;
}

// ---- sweep_fig12 ----------------------------------------------------------------

constexpr int kSweepJobs = 2;
constexpr double kSweepSeconds = 40;

// qa_sweep --preset fig12 with the seed axis shifted to N..N+4 (N = 1 is
// the preset itself).
app::SweepGrid fig12_grid(uint64_t seed, double duration) {
  app::SweepGrid grid;
  grid.base.rap_flows = 2;
  grid.base.tcp_flows = 2;
  grid.base.duration_sec = duration;
  grid.kmax = {1, 2, 3, 4};
  grid.seeds.clear();
  for (uint64_t i = 0; i < 5; ++i) grid.seeds.push_back(seed + i);
  return grid;
}

// Per-cell wall timings from the on_job_start/on_progress hooks.
struct CellTimes {
  std::mutex mu;
  std::map<size_t, double> start;
  std::vector<double> cell_ms;
};

app::SweepResult sweep_run(const app::SweepGrid& grid, int jobs,
                           CellTimes* cells) {
  app::SweepOptions opts;
  opts.jobs = jobs;
  if (cells) {
    opts.on_job_start = [cells](size_t index) {
      const double t = wall_now();
      std::lock_guard<std::mutex> lock(cells->mu);
      cells->start[index] = t;
    };
    opts.on_progress = [cells](const app::SweepRow& row, size_t, size_t) {
      const double t = wall_now();
      std::lock_guard<std::mutex> lock(cells->mu);
      cells->cell_ms.push_back((t - cells->start[row.index]) * 1e3);
    };
  }
  return app::run_sweep(grid, opts);
}

std::vector<Outcome> sweep_outcomes(const app::SweepResult& r,
                                    double duration) {
  std::vector<Outcome> out;
  for (const app::SweepRow& row : r.rows) {
    Outcome o;
    o.scenario = "k" + std::to_string(row.kmax) + ".s" +
                 std::to_string(row.seed);
    o.digest = row.ok ? hex(app::sweep_digest({row})) : "error:row not ok";
    o.packets = row.qa_packets;
    o.sim_s = duration;
    out.push_back(o);
  }
  return out;
}

Rep sweep_rep(uint64_t seed, double duration) {
  Rep rep;
  Stopwatch sw;
  app::SweepResult r;
  try {
    const app::SweepGrid grid = fig12_grid(seed, duration);
    sw.run([&] { r = sweep_run(grid, kSweepJobs, nullptr); });
    rep.outcomes = sweep_outcomes(r, duration);
  } catch (const std::exception& e) {
    rep.outcomes.push_back(
        Outcome{"grid", std::string("error:") + e.what(), 0, 0});
  }
  rep.cost = sw.total();
  return rep;
}

// ---- qa_replay ----------------------------------------------------------------

constexpr double kReplaySeconds = 300;
constexpr int kReplayTrajectories = 5;

// §3 near-random backoffs: a 20-60 kB/s AIMD path with Poisson backoffs
// every 2 s on average, one trajectory per derived seed.
std::vector<core::AimdTrajectory> replay_inputs(uint64_t seed,
                                                double duration) {
  std::vector<core::AimdTrajectory> trajs;
  for (int j = 0; j < kReplayTrajectories; ++j) {
    Rng rng(seed + static_cast<uint64_t>(j));
    trajs.push_back(tracedrive::random_backoff_trajectory(
        30'000, 20'000, 60'000, std::max(duration, 1.0), 2.0, rng));
  }
  return trajs;
}

core::AdapterConfig replay_config(int kmax) {
  core::AdapterConfig cfg;
  cfg.consumption_rate = 10'000;
  cfg.max_layers = 6;
  cfg.kmax = kmax;
  cfg.playout_delay = TimeDelta::seconds(1);
  return cfg;
}

Rep replay_rep(const std::vector<core::AimdTrajectory>& trajs,
               double duration, SpanLog* spans) {
  Rep rep;
  Stopwatch sw;
  for (int kmax = 1; kmax <= 4; ++kmax) {
    for (size_t j = 0; j < trajs.size(); ++j) {
      rep.outcomes.push_back(guarded(
          "k" + std::to_string(kmax) + ".t" + std::to_string(j), [&] {
            tracedrive::TraceRunResult r;
            std::unique_ptr<SpanLog::Scope> span;
            if (spans) {
              span = std::make_unique<SpanLog::Scope>(*spans,
                                                      "tracedrive.run_trace");
            }
            sw.run([&] {
              r = tracedrive::run_trace(trajs[j], replay_config(kmax),
                                        duration);
            });
            return Outcome{"", hex(trace_run_digest(r)), r.packets_sent,
                           duration};
          }));
    }
  }
  rep.cost = sw.total();
  return rep;
}

// ---- Workload table. ------------------------------------------------------------

// Smallest simulated duration used for the set-up measurement: every entry
// point rejects 0, so 1 ms builds the whole scenario and runs almost none.
constexpr double kSetupSeconds = 0.001;

struct Workload {
  std::string name;
  std::string input;  // stated input size, echoed into the result
  // One rep: the full workload, or its set-up at kSetupSeconds.
  std::function<Rep(bool setup)> rep;
};

Workload make_workload(const std::string& name, uint64_t seed,
                       const std::string& out) {
  if (name == "farm_churn500") {
    return {name,
            "6 churn500 farms (seeds N + 1000 i, i < 6), 600 s simulated each",
            [seed](bool setup) {
              return farm_rep(seed,
                              setup ? TimeDelta::from_sec(kSetupSeconds)
                                    : TimeDelta::seconds(600),
                              false, nullptr, nullptr);
            }};
  }
  if (name == "fig2_observed") {
    return {name,
            "fig-2 scenario x {rap,tfrc,nada}, 20 s simulated, full hub",
            [seed, out](bool setup) {
              return fig2_rep(seed, setup ? kSetupSeconds : kFig2Seconds,
                              out);
            }};
  }
  if (name == "sweep_fig12") {
    return {name, "fig12 grid: Kmax 1-4 x seeds N..N+4, 40 s each, jobs 2",
            [seed](bool setup) {
              return sweep_rep(seed, setup ? kSetupSeconds : kSweepSeconds);
            }};
  }
  if (name == "qa_replay") {
    // Inputs are generated once, outside every timed window.
    auto full = std::make_shared<std::vector<core::AimdTrajectory>>(
        replay_inputs(seed, kReplaySeconds));
    auto tiny = std::make_shared<std::vector<core::AimdTrajectory>>(
        replay_inputs(seed, kSetupSeconds));
    return {name, "run_trace: Kmax 1-4 x 5 trajectories (seeds N..N+4), 300 s",
            [full, tiny](bool setup) {
              return setup ? replay_rep(*tiny, kSetupSeconds, nullptr)
                           : replay_rep(*full, kReplaySeconds, nullptr);
            }};
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---- JSON output helpers. -----------------------------------------------------

std::string rep_json(const Rep& r) {
  std::string out = "{\"wall_s\":" + json_number(r.cost.wall_s) +
                    ",\"cpu_s\":" + json_number(r.cost.cpu_s) +
                    ",\"outcomes\":[";
  for (size_t i = 0; i < r.outcomes.size(); ++i) {
    const Outcome& o = r.outcomes[i];
    if (i > 0) out += ",";
    out += "{\"scenario\":" + json_quote(o.scenario) +
           ",\"digest\":" + json_quote(o.digest) +
           ",\"packets\":" + json_number(o.packets) +
           ",\"sim_s\":" + json_number(o.sim_s) + "}";
  }
  return out + "]}";
}

std::string checks_json(const std::vector<Check>& checks) {
  std::string out = "[";
  for (size_t i = 0; i < checks.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"name\":" + json_quote(checks[i].name) +
           ",\"ok\":" + (checks[i].ok ? "true" : "false") +
           ",\"detail\":" + json_quote(checks[i].detail) + "}";
  }
  return out + "]";
}

// ---- timed / digests modes. -----------------------------------------------------

// Set-up samples: kSetupReps up front (they also let lazy initialisation
// finish before the first timed rep), then a short burst after every timed
// rep, sized so the bursts add up to about kSetupShare of the window. A
// set-up is well under a millisecond, and the host's speed drifts over tens
// of seconds, so samples spread across the whole window give a median as
// steady as the timed reps'.
constexpr int kSetupReps = 15;
constexpr double kSetupShare = 0.04;
constexpr int kMinReps = 3;

int run_timed(const std::string& workload, uint64_t seed, double seconds,
              const std::string& out, bool digests_only) {
  const Workload w = make_workload(workload, seed, out);
  std::string json = "{\"workload\":" + json_quote(w.name) +
                     ",\"seed\":" + json_number(seed) +
                     ",\"input\":" + json_quote(w.input);
  if (digests_only) {
    json += ",\"reps\":[" + rep_json(w.rep(false)) + "]";
  } else {
    std::vector<double> setup;
    const auto setup_burst = [&](int min_reps, double budget_s) {
      const double t0 = wall_now();
      for (int i = 0; i < min_reps || wall_now() - t0 < budget_s; ++i) {
        setup.push_back(w.rep(true).cost.wall_s);
      }
    };
    setup_burst(kSetupReps, 0);
    // Repetitions fill the measuring window: another one starts only if,
    // at the slowest pace seen so far, it still ends inside the window.
    std::string reps;
    const double start = wall_now();
    double slowest = 0;
    for (int i = 0;
         i < kMinReps || wall_now() - start + slowest <= seconds; ++i) {
      const double t0 = wall_now();
      reps += (i > 0 ? "," : "") + rep_json(w.rep(false));
      const double rep_s = wall_now() - t0;
      setup_burst(1, kSetupShare * rep_s);
      slowest = std::max(slowest, wall_now() - t0);
    }
    json += ",\"setup_s\":[";
    for (size_t i = 0; i < setup.size(); ++i) {
      json += (i > 0 ? "," : "") + json_number(setup[i]);
    }
    json += "],\"reps\":[" + reps + "]";
  }
  std::vector<Check> checks;
  if (workload == "fig2_observed") checks = fig2_parity(seed, out);
  json += ",\"checks\":" + checks_json(checks);
  json += ",\"peak_rss_bytes\":" + json_number(peak_rss_bytes()) + "}";
  std::printf("%s\n", json.c_str());
  return 0;
}

// ---- Layer probes (traced pass). -------------------------------------------------

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

using Metrics = std::map<std::string, double>;

// Scheduler: dense IPG-timer load. 256 paced senders, each firing at its
// own inter-packet gap (seeded rates 2-200 kB/s of 500 B packets) and
// re-arming a retransmission timer every fourth packet (cancel + schedule,
// as CcSource does).
double probe_scheduler(uint64_t seed) {
  constexpr int kSenders = 256;
  constexpr uint64_t kEvents = 1'000'000;
  Rng rng(seed ^ 0x5C4EDu);
  std::vector<TimeDelta> ipg;
  for (int i = 0; i < kSenders; ++i) {
    ipg.push_back(TimeDelta::from_sec(500.0 / rng.uniform(2'000, 200'000)));
  }
  std::vector<double> ns;
  for (int round = 0; round < 3; ++round) {
    sim::Scheduler sched;
    std::vector<sim::EventId> rto(kSenders, sim::kInvalidEventId);
    std::vector<uint64_t> sent(kSenders, 0);
    uint64_t fired = 0;
    struct Sender {
      sim::Scheduler* s;
      std::vector<sim::EventId>* rto;
      std::vector<uint64_t>* sent;
      const std::vector<TimeDelta>* ipg;
      uint64_t* fired;
      int i;
      void operator()() const {
        if (++*fired >= kEvents) return;
        const auto k = static_cast<size_t>(i);
        if (++(*sent)[k] % 4 == 0) {
          if ((*rto)[k] != sim::kInvalidEventId) s->cancel((*rto)[k]);
          (*rto)[k] = s->schedule_after(TimeDelta::seconds(1), [] {},
                                        sim::EventCategory::kTransport);
        }
        s->schedule_after((*ipg)[k], *this, sim::EventCategory::kTransport);
      }
    };
    const double t0 = wall_now();
    for (int i = 0; i < kSenders; ++i) {
      sched.schedule_after(ipg[static_cast<size_t>(i)],
                           Sender{&sched, &rto, &sent, &ipg, &fired, i},
                           sim::EventCategory::kTransport);
    }
    sched.run_until(TimePoint::from_sec(1e6));
    const double dt = wall_now() - t0;
    ns.push_back(dt * 1e9 / static_cast<double>(sched.events_executed()));
  }
  return median_of(ns);
}

// Link + DropTail: Poisson arrivals at twice the bottleneck rate into a
// 20 kB drop-tail queue on a 100 kB/s, 10 ms link.
void probe_link(uint64_t seed, Metrics& m) {
  constexpr int kPackets = 200'000;
  constexpr int32_t kSize = 500;
  struct Sink : sim::Agent {
    int64_t got = 0;
    void on_packet(const sim::Packet&) override { ++got; }
  };
  std::vector<double> ns;
  int64_t drops = 0;
  for (int round = 0; round < 3; ++round) {
    Rng rng(seed ^ 0x11A4u);
    sim::Scheduler sched;
    sim::Node sink_node(1, "sink");
    Sink sink;
    sink_node.attach_agent(0, &sink);
    sim::Link link("probe", &sched, &sink_node, Rate::kilobytes_per_sec(100),
                   TimeDelta::millis(10),
                   std::make_unique<sim::DropTailQueue>(20'000));
    const double mean_gap = kSize / 200'000.0;  // 2x the link rate
    TimePoint at = TimePoint::origin();
    const double t0 = wall_now();
    for (int i = 0; i < kPackets; ++i) {
      at = at + TimeDelta::from_sec(rng.exponential(mean_gap));
      sched.schedule_at(
          at,
          [&link, i] {
            sim::Packet p;
            p.src = 0;
            p.dst = 1;
            p.flow_id = 0;
            p.size_bytes = kSize;
            p.seq = i;
            link.submit(p);
          },
          sim::EventCategory::kTransport);
    }
    sched.run_until(at + TimeDelta::seconds(10));
    ns.push_back((wall_now() - t0) * 1e9 / kPackets);
    drops = link.queue().total_drops();
    if (sink.got + drops != kPackets) {
      throw std::runtime_error("link probe lost packets");
    }
  }
  m["sim.link.ns_per_packet"] = median_of(ns);
  m["sim.queue.drops"] = static_cast<double>(drops);
}

// buffer_math: the three per-packet target computations over seeded
// inputs spanning the rates, layer counts, Kmax and slopes seen in runs.
double probe_buffer_math(uint64_t seed, double* checksum) {
  struct In {
    double rate;
    int layers;
    int k;
    core::AimdModel model;
    core::Scenario scenario;
  };
  Rng rng(seed ^ 0xB0FFu);
  std::vector<In> in;
  for (int i = 0; i < 4096; ++i) {
    In x;
    x.model.consumption_rate = 10'000;
    x.model.slope = rng.uniform(100, 20'000);
    x.layers = 1 + static_cast<int>(rng.next_below(8));
    x.rate = rng.uniform(5'000, 90'000);
    x.k = 1 + static_cast<int>(rng.next_below(4));
    x.scenario = rng.bernoulli(0.5) ? core::Scenario::kClustered
                                    : core::Scenario::kSpread;
    in.push_back(x);
  }
  constexpr int kPasses = 200;
  std::vector<double> ns;
  double sum = 0;
  for (int round = 0; round < 3; ++round) {
    const double t0 = wall_now();
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const In& x : in) {
        sum += core::deficit_height(x.scenario, x.k, x.rate, x.layers,
                                    x.model);
        sum += core::min_backoffs_to_drain(x.rate, x.layers,
                                           x.model.consumption_rate);
        sum += core::total_buf_required(x.scenario, x.k, x.rate, x.layers,
                                        x.model);
      }
    }
    ns.push_back((wall_now() - t0) * 1e9 /
                 (3.0 * kPasses * static_cast<double>(in.size())));
  }
  *checksum = sum;
  return median_of(ns);
}

// VideoClient::on_data: an in-order 4-layer stream, then the same stream
// with local reordering plus duplicates re-sent 600-2000 packets later —
// past the 512-entry dedup window. dup_credited counts duplicates the
// client credited to its buffer instead of discarding.
void probe_client(uint64_t seed, Metrics& m) {
  constexpr int kPackets = 100'000;
  constexpr int kLayers = 4;
  std::vector<sim::Packet> in_order;
  for (int i = 0; i < kPackets; ++i) {
    sim::Packet p;
    p.flow_id = 0;
    p.size_bytes = 500;
    p.layer = static_cast<int16_t>(i % kLayers);
    p.layer_seq = i / kLayers;
    in_order.push_back(p);
  }
  Rng rng(seed ^ 0xC11Eu);
  std::vector<sim::Packet> messy = in_order;
  for (size_t i = 0; i + 8 < messy.size(); i += 8) {
    std::swap(messy[i], messy[i + 1 + rng.next_below(7)]);
  }
  // Insert duplicates from the back so earlier indices stay valid.
  int64_t dups = 0;
  for (size_t i = messy.size(); i-- > 0;) {
    if (!rng.bernoulli(0.02)) continue;
    const size_t lag = 600 + rng.next_below(1400);
    const size_t at = std::min(messy.size(), i + lag);
    messy.insert(messy.begin() + static_cast<std::ptrdiff_t>(at), messy[i]);
    ++dups;
  }
  std::vector<double> ns;
  int64_t credited = 0;
  for (int round = 0; round < 3; ++round) {
    double dt = 0;
    for (const auto* stream : {&in_order, &messy}) {
      sim::Scheduler sched;  // never run: arrivals all land at t = 0
      app::VideoClient client(&sched, 10'000, 8, TimeDelta::seconds(1));
      const double t0 = wall_now();
      for (const sim::Packet& p : *stream) client.on_data(p);
      dt += wall_now() - t0;
      if (stream == &messy) credited = client.packets_received() - kPackets;
    }
    ns.push_back(dt * 1e9 /
                 static_cast<double>(in_order.size() + messy.size()));
  }
  m["app.client.ns_per_packet"] = median_of(ns);
  m["app.client.dup_credited"] = static_cast<double>(credited);
  m["app.client.dup_injected"] = static_cast<double>(dups);
}

// ---- traced mode. ------------------------------------------------------------------

struct SchedTotals {
  sim::SchedulerProfiler::CategoryStats cat[sim::kEventCategoryCount] = {};
  double wall_ms = 0;  // wall time of the profiled runs

  void add(const sim::SchedulerProfiler& p, double wall_s) {
    for (int c = 0; c < sim::kEventCategoryCount; ++c) {
      const auto& s = p.stats(static_cast<sim::EventCategory>(c));
      cat[c].dispatches += s.dispatches;
      cat[c].wall_ns += s.wall_ns;
    }
    wall_ms += wall_s * 1e3;
  }
};

// Fills sched.* and returns the check that busy time fits in wall time.
Check sched_metrics(const SchedTotals& t, Metrics& m, std::string* json) {
  const auto busy = [&](sim::EventCategory c) {
    return static_cast<double>(t.cat[static_cast<int>(c)].wall_ns) * 1e-6;
  };
  const auto events = [&](sim::EventCategory c) {
    return static_cast<double>(t.cat[static_cast<int>(c)].dispatches);
  };
  const std::pair<const char*, sim::EventCategory> named[] = {
      {"link_tx", sim::EventCategory::kLinkTx},
      {"link_wire", sim::EventCategory::kLinkWire},
      {"transport", sim::EventCategory::kTransport},
      {"probe", sim::EventCategory::kProbe}};
  double busy_sum = 0, events_sum = 0;
  *json = "{";
  for (int c = 0; c < sim::kEventCategoryCount; ++c) {
    const auto cat = static_cast<sim::EventCategory>(c);
    busy_sum += busy(cat);
    events_sum += events(cat);
    *json += std::string(c > 0 ? "," : "") +
             json_quote(sim::event_category_name(cat)) +
             ":{\"events\":" + json_number(events(cat)) +
             ",\"busy_ms\":" + json_number(busy(cat)) + "}";
  }
  *json += "}";
  double named_busy = 0, named_events = 0;
  for (const auto& [name, cat] : named) {
    m[std::string("sched.") + name + ".events"] = events(cat);
    m[std::string("sched.") + name + ".busy_ms"] = busy(cat);
    named_busy += busy(cat);
    named_events += events(cat);
  }
  m["sched.events"] = events_sum;
  m["sched.other.events"] = events_sum - named_events;
  m["sched.other.busy_ms"] = busy_sum - named_busy;
  m["sched.unattributed_ms"] = t.wall_ms - busy_sum;
  // Busy + unattributed equals wall by definition, so the check that can
  // fail is this one: the profiler's busy time, on its own clock, must fit
  // inside the benchmark's stopwatch time of the same runs.
  Check c{"sched.unattributed_nonnegative", false, ""};
  c.ok = m["sched.unattributed_ms"] >= 0;
  c.detail = "busy " + json_number(busy_sum) + " ms + unattributed " +
             json_number(m["sched.unattributed_ms"]) + " ms vs wall " +
             json_number(t.wall_ms) + " ms";
  return c;
}

// Every per-layer metric the pass reports, with its unit. A metric whose
// layer the workload does not run reads 0 (see NOTES.md).
const std::vector<std::pair<std::string, std::string>>& per_layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"sched.events", "count"},
      {"sched.link_tx.events", "count"},
      {"sched.link_tx.busy_ms", "ms"},
      {"sched.link_wire.events", "count"},
      {"sched.link_wire.busy_ms", "ms"},
      {"sched.transport.events", "count"},
      {"sched.transport.busy_ms", "ms"},
      {"sched.probe.events", "count"},
      {"sched.probe.busy_ms", "ms"},
      {"sched.other.events", "count"},
      {"sched.other.busy_ms", "ms"},
      {"sched.unattributed_ms", "ms"},
      {"sim.scheduler.ns_per_event", "ns"},
      {"sim.link.ns_per_packet", "ns"},
      {"sim.queue.drops", "count"},
      {"core.buffer_math.ns_per_call", "ns"},
      {"core.replay.ns_per_packet", "ns"},
      {"app.client.ns_per_packet", "ns"},
      {"app.client.dup_credited", "count"},
      {"cc.rap.busy_ms", "ms"},
      {"cc.tfrc.busy_ms", "ms"},
      {"cc.nada.busy_ms", "ms"},
      {"cc.rap.packets_sent", "count"},
      {"cc.tfrc.packets_sent", "count"},
      {"cc.nada.packets_sent", "count"},
      {"cc.rap.backoffs", "count"},
      {"cc.tfrc.backoffs", "count"},
      {"cc.nada.backoffs", "count"},
      {"obs.trace_cpu_s", "s"},
      {"obs.journey_cpu_s", "s"},
      {"obs.profiler_cpu_s", "s"},
      {"obs.overhead_x", "x"},
      {"obs.artifact_bytes", "B"},
      {"sweep.parallel_eff", "frac"},
      {"sweep.cell_ms_p50", "ms"},
      {"sweep.cell_ms_max", "ms"},
      {"farm.arrivals", "count"},
      {"farm.admitted", "count"},
      {"farm.shed", "count"},
      {"farm.peak_active", "count"},
      {"farm.packets", "count"},
      {"trace.overhead_frac", "frac"},
  };
  return units;
}

int64_t dir_bytes(const std::string& dir) {
  int64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += static_cast<int64_t>(e.file_size());
  }
  return total;
}

// fig2_observed: toggle matrix, profiler categories, per-backend cc costs.
void traced_fig2(uint64_t seed, const std::string& out, Metrics& m,
                 std::vector<Check>& checks, std::vector<Rep>& reps,
                 SpanLog& spans, std::string* extra) {
  constexpr int kRounds = 5;
  const ObsMode modes[] = {ObsMode::kFull, ObsMode::kNoTrace,
                           ObsMode::kNoJourneys, ObsMode::kProfileOnly,
                           ObsMode::kBare};
  std::map<std::string, double> cpu;  // mode -> Σ over backends of median
  SchedTotals totals;
  std::string toggles = "{";
  int64_t artifact_bytes = 0;
  for (cc::Backend b : cc::all_backends()) {
    const std::string bn = cc::to_string(b);
    std::map<std::string, std::vector<double>> samples;
    run_fig2(b, seed, kFig2Seconds, ObsMode::kFull, out);  // warm-up
    for (int round = 0; round < kRounds; ++round) {
      // The timed workload's configuration without a span, for
      // trace.overhead_frac.
      samples["untraced"].push_back(
          run_fig2(b, seed, kFig2Seconds, ObsMode::kFull, out).cost.cpu_s);
      // Alternate the order so drift on the host falls on every mode.
      for (int i = 0; i < 5; ++i) {
        const ObsMode mode = modes[round % 2 ? 4 - i : i];
        SpanLog::Scope span(spans, "app.run_experiment." + bn + "." +
                                       obs_mode_name(mode));
        const Fig2Run run = run_fig2(b, seed, kFig2Seconds, mode, out);
        samples[obs_mode_name(mode)].push_back(run.cost.cpu_s);
        if (mode == ObsMode::kFull && round == 0) {
          totals.add(run.profiler, run.cost.wall_s);
          m["cc." + bn + ".busy_ms"] =
              static_cast<double>(
                  run.profiler.stats(sim::EventCategory::kTransport).wall_ns) *
              1e-6;
          m["cc." + bn + ".packets_sent"] =
              static_cast<double>(run.result.qa_packets_sent);
          m["cc." + bn + ".backoffs"] =
              static_cast<double>(run.result.qa_backoffs);
          artifact_bytes += dir_bytes(run.out_dir);
          Rep rep;
          rep.cost = run.cost;
          rep.outcomes.push_back(Outcome{bn, fig2_digest(run),
                                         run.result.qa_packets_sent,
                                         kFig2Seconds});
          reps.push_back(rep);
        }
      }
    }
    toggles += std::string(b == cc::Backend::kRap ? "" : ",") +
               json_quote(bn) + ":{";
    bool first = true;
    for (const auto& [mode, v] : samples) {
      const double med = median_of(v);
      cpu[mode] += med;
      toggles += std::string(first ? "" : ",") + json_quote(mode) + ":" +
                 json_number(med);
      first = false;
    }
    toggles += "}";
  }
  toggles += "}";
  m["obs.trace_cpu_s"] = cpu["full"] - cpu["no_trace"];
  m["obs.journey_cpu_s"] = cpu["full"] - cpu["no_journeys"];
  m["obs.profiler_cpu_s"] = cpu["profile_only"] - cpu["bare"];
  m["obs.overhead_x"] = cpu["full"] / cpu["bare"];
  m["obs.artifact_bytes"] = static_cast<double>(artifact_bytes);
  // The timed workload is the full hub, so tracing adds only the spans and
  // this reads about 0, within run-to-run noise.
  m["trace.overhead_frac"] = cpu["full"] / cpu["untraced"] - 1.0;
  std::string sched_json;
  checks.push_back(sched_metrics(totals, m, &sched_json));
  for (const Check& c : fig2_parity(seed, out)) checks.push_back(c);
  *extra = ",\"obs_toggles_cpu_s\":" + toggles +
           ",\"profiler\":" + sched_json;
}

void traced_sweep(uint64_t seed, Metrics& m, std::vector<Check>& checks,
                  std::vector<Rep>& reps, SpanLog& spans,
                  std::string* extra) {
  const app::SweepGrid grid = fig12_grid(seed, kSweepSeconds);
  // Untraced reference, then the hooked runs at jobs 2 and jobs 1.
  Rep untraced = sweep_rep(seed, kSweepSeconds);
  reps.push_back(untraced);
  // jobs 2 is the workload; jobs 1 and 4 bracket it so the per-cell times
  // show whether cells slow down when they share the host (NOTES.md).
  std::string cells_json = "{";
  std::vector<std::string> sweep_digests;
  for (const int jobs : {kSweepJobs, 1, 4}) {
    CellTimes cells;
    Stopwatch sw;
    app::SweepResult r;
    {
      SpanLog::Scope span(spans, "app.run_sweep.jobs" + std::to_string(jobs));
      sw.run([&] { r = sweep_run(grid, jobs, &cells); });
    }
    sweep_digests.push_back(hex(app::sweep_digest(r.rows)));
    double cell_sum = 0;
    for (double c : cells.cell_ms) cell_sum += c;
    const double eff = cell_sum / (jobs * sw.total().wall_s * 1e3);
    if (jobs == kSweepJobs) {
      m["sweep.parallel_eff"] = eff;
      m["sweep.cell_ms_p50"] = median_of(cells.cell_ms);
      m["sweep.cell_ms_max"] =
          *std::max_element(cells.cell_ms.begin(), cells.cell_ms.end());
    }
    std::string list;
    for (size_t i = 0; i < cells.cell_ms.size(); ++i) {
      list += (i > 0 ? "," : "") + json_number(cells.cell_ms[i]);
    }
    cells_json += std::string(jobs == kSweepJobs ? "" : ",") + "\"jobs" +
                  std::to_string(jobs) + "\":{\"wall_s\":" +
                  json_number(sw.total().wall_s) + ",\"cpu_s\":" +
                  json_number(sw.total().cpu_s) + ",\"cell_sum_ms\":" +
                  json_number(cell_sum) + ",\"parallel_eff\":" +
                  json_number(eff) + ",\"cell_ms\":[" + list + "]}";
  }
  cells_json += "}";
  const bool same = std::all_of(
      sweep_digests.begin(), sweep_digests.end(),
      [&](const std::string& d) { return d == sweep_digests[0]; });
  checks.push_back(Check{"sweep.jobs_invariant_digest", same,
                         sweep_digests[0] + " for jobs 2, 1, 4"});
  // Profiled pass: the same cells, serially, each under a profile-only hub.
  SchedTotals totals;
  Stopwatch profiled;
  for (size_t i = 0; i < grid.size(); ++i) {
    app::ExperimentParams p = grid.params_at(i);
    app::ObservabilityConfig cfg;
    cfg.trace = cfg.metrics = cfg.journeys = cfg.flightrec = false;
    SpanLog::Scope span(spans, "app.run_experiment.cell" + std::to_string(i));
    sim::SchedulerProfiler prof;
    const double before = profiled.total().wall_s;
    profiled.run([&] {
      app::Observability obs(cfg);
      p.observability = &obs;
      app::run_experiment(p);
      prof = obs.profiler();
    });
    totals.add(prof, profiled.total().wall_s - before);
  }
  m["trace.overhead_frac"] =
      profiled.total().cpu_s / untraced.cost.cpu_s - 1.0;
  std::string sched_json;
  checks.push_back(sched_metrics(totals, m, &sched_json));
  *extra = ",\"sweep_cells\":" + cells_json + ",\"profiler\":" + sched_json +
           ",\"profiled_cpu_s\":" + json_number(profiled.total().cpu_s) +
           ",\"untraced_cpu_s\":" + json_number(untraced.cost.cpu_s);
}

int run_traced(const std::string& workload, uint64_t seed,
               const std::string& out) {
  Metrics m;
  for (const auto& [name, unit] : per_layer_units()) m[name] = 0;
  std::vector<Check> checks;
  std::vector<Rep> reps;
  SpanLog spans;
  std::string extra;

  {
    SpanLog::Scope span(spans, "probes");
    {
      SpanLog::Scope s(spans, "probe.sim.scheduler");
      m["sim.scheduler.ns_per_event"] = probe_scheduler(seed);
    }
    {
      SpanLog::Scope s(spans, "probe.sim.link");
      probe_link(seed, m);
    }
    double checksum = 0;
    {
      SpanLog::Scope s(spans, "probe.core.buffer_math");
      m["core.buffer_math.ns_per_call"] = probe_buffer_math(seed, &checksum);
    }
    extra += ",\"buffer_math_checksum\":" + json_number(checksum);
    {
      SpanLog::Scope s(spans, "probe.app.client");
      probe_client(seed, m);
    }
  }

  if (workload == "farm_churn500") {
    const Rep untraced = farm_rep(seed, TimeDelta::seconds(600), false,
                                  nullptr, nullptr);
    FarmCounts counts;
    const Rep traced = farm_rep(seed, TimeDelta::seconds(600), true, &counts,
                                &spans);
    reps = {untraced, traced};
    m["farm.arrivals"] = static_cast<double>(counts.arrivals);
    m["farm.admitted"] = static_cast<double>(counts.admitted);
    m["farm.shed"] = static_cast<double>(counts.shed);
    m["farm.peak_active"] = static_cast<double>(counts.peak_active);
    m["farm.packets"] = static_cast<double>(counts.packets);
    m["trace.overhead_frac"] = traced.cost.cpu_s / untraced.cost.cpu_s - 1.0;
  } else if (workload == "fig2_observed") {
    traced_fig2(seed, out, m, checks, reps, spans, &extra);
  } else if (workload == "sweep_fig12") {
    traced_sweep(seed, m, checks, reps, spans, &extra);
  } else if (workload == "qa_replay") {
    const auto trajs = replay_inputs(seed, kReplaySeconds);
    const Rep untraced = replay_rep(trajs, kReplaySeconds, nullptr);
    const Rep traced = replay_rep(trajs, kReplaySeconds, &spans);
    reps = {untraced, traced};
    int64_t packets = 0;
    for (const Outcome& o : traced.outcomes) packets += o.packets;
    m["core.replay.ns_per_packet"] =
        traced.cost.wall_s * 1e9 / static_cast<double>(packets);
    m["trace.overhead_frac"] = traced.cost.cpu_s / untraced.cost.cpu_s - 1.0;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }

  std::string metrics_json = "{";
  bool first = true;
  for (const auto& [name, unit] : per_layer_units()) {
    metrics_json += std::string(first ? "" : ",") + json_quote(name) +
                    ":{\"value\":" + json_number(m[name]) +
                    ",\"unit\":" + json_quote(unit) + "}";
    first = false;
  }
  metrics_json += "}";
  std::string reps_json;
  for (size_t i = 0; i < reps.size(); ++i) {
    reps_json += (i > 0 ? "," : "") + rep_json(reps[i]);
  }
  const std::string json =
      "{\"workload\":" + json_quote(workload) +
      ",\"seed\":" + json_number(seed) + ",\"metrics\":" + metrics_json +
      ",\"reps\":[" + reps_json + "],\"checks\":" + checks_json(checks) +
      ",\"dup_injected\":" + json_number(m["app.client.dup_injected"]) +
      extra + ",\"spans\":" + spans.to_json() + "}";
  write_text_file(out + "/trace_pass.json", json + "\n");
  // stdout carries everything but the (long) span list.
  std::printf("{\"workload\":%s,\"metrics\":%s,\"reps\":[%s],\"checks\":%s}\n",
              json_quote(workload).c_str(), metrics_json.c_str(),
              reps_json.c_str(), checks_json(checks).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: qa_bench timed|traced|digests --workload W "
                 "--seed N [--seconds S] --out DIR\n");
    return 2;
  }
  const std::string mode = argv[1];
  const Flags flags(argc - 1, argv + 1);
  const std::string workload = flags.get_or("workload", "");
  const auto seed = static_cast<uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 10);
  const std::string out = flags.get_or("out", ".bench_out/" + workload);
  try {
    fs::create_directories(out);
    if (mode == "timed" || mode == "digests") {
      return run_timed(workload, seed, seconds, out, mode == "digests");
    }
    if (mode == "traced") return run_traced(workload, seed, out);
    std::fprintf(stderr, "qa_bench: unknown mode '%s'\n", mode.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qa_bench: %s\n", e.what());
  }
  return 2;
}

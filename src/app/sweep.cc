#include "app/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "util/csv.h"
#include "util/json.h"
#include "util/rng.h"

namespace qa::app {

namespace {

// Axis order for index decomposition: seeds vary slowest, backends fastest.
struct Coords {
  size_t seed, kmax, bw, rtt, loss, faults, backend;
};

Coords decompose(const SweepGrid& g, size_t index) {
  Coords c{};
  c.backend = index % g.backends.size();
  index /= g.backends.size();
  c.faults = index % g.faults.size();
  index /= g.faults.size();
  c.loss = index % g.loss_rate.size();
  index /= g.loss_rate.size();
  c.rtt = index % g.rtt_ms.size();
  index /= g.rtt_ms.size();
  c.bw = index % g.bottleneck_kbps.size();
  index /= g.bottleneck_kbps.size();
  c.kmax = index % g.kmax.size();
  index /= g.kmax.size();
  c.seed = index;
  return c;
}

void check_axes(const SweepGrid& g) {
  if (g.seeds.empty() || g.kmax.empty() || g.bottleneck_kbps.empty() ||
      g.rtt_ms.empty() || g.loss_rate.empty() || g.faults.empty() ||
      g.backends.empty()) {
    throw std::invalid_argument("sweep grid has an empty axis");
  }
}

std::string canonical_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Runs one grid point and reduces it to a row; never throws (a failed job
// is an ok=false row so one pathological scenario cannot sink a grid).
SweepRow run_point(const SweepGrid& grid, size_t index) {
  const Coords c = decompose(grid, index);
  SweepRow row;
  row.index = index;
  row.seed = grid.seeds[c.seed];
  row.derived_seed = derive_job_seed(grid, index);
  row.kmax = grid.kmax[c.kmax];
  row.bottleneck_kbps = grid.bottleneck_kbps[c.bw];
  row.rtt = TimeDelta::from_sec(grid.rtt_ms[c.rtt] / 1000.0);
  row.loss_rate = grid.loss_rate[c.loss];
  row.faults = grid.faults[c.faults];
  row.backend = grid.backends[c.backend];
  try {
    const ExperimentParams params = grid.params_at(index);
    const ExperimentResult r = run_experiment(params);
    row.ok = true;
    row.mean_layers = r.metrics.mean_quality(
        TimePoint::origin(), TimePoint::from_sec(params.duration_sec));
    row.quality_changes = r.metrics.quality_changes();
    row.drops = static_cast<int64_t>(r.metrics.drops().size());
    row.adds = static_cast<int64_t>(r.metrics.adds().size());
    row.mean_efficiency = r.metrics.mean_efficiency();
    row.final_total_buffer = r.final_mirror_total_buffer;
    row.stall_s = r.client_base_stall.sec();
    row.rebuffer_events = r.rebuffer_events;
    row.rebuffer_s = r.rebuffer_time.sec();
    row.qa_mean_rate_bps = r.qa_mean_rate_bps;
    row.qa_packets = r.qa_packets_sent;
    row.qa_losses = r.qa_losses;
    row.qa_backoffs = r.qa_backoffs;
    row.mean_rap_rate_bps = r.mean_rap_competitor_rate_bps;
    row.mean_tcp_rate_bps = r.mean_tcp_rate_bps;
  } catch (...) {
    row.ok = false;  // coordinates stay; measurements remain zero
  }
  return row;
}

}  // namespace

size_t SweepGrid::size() const {
  check_axes(*this);
  return seeds.size() * kmax.size() * bottleneck_kbps.size() *
         rtt_ms.size() * loss_rate.size() * faults.size() * backends.size();
}

uint64_t derive_job_seed(const SweepGrid& grid, size_t index) {
  const Coords c = decompose(grid, index);
  // Chain the base seed, the seed-axis *value*, and every coordinate
  // through SplitMix64. Using values for the seed axis (not its index)
  // keeps a job's stream stable when the axis list is extended in place.
  uint64_t state = grid.base.seed;
  (void)splitmix64(state);
  state ^= grid.seeds[c.seed];
  (void)splitmix64(state);
  state ^= static_cast<uint64_t>(c.kmax) << 0;
  state ^= static_cast<uint64_t>(c.bw) << 8;
  state ^= static_cast<uint64_t>(c.rtt) << 16;
  state ^= static_cast<uint64_t>(c.loss) << 24;
  state ^= static_cast<uint64_t>(c.faults) << 32;
  state ^= static_cast<uint64_t>(c.backend) << 40;
  const uint64_t derived = splitmix64(state);
  return derived != 0 ? derived : 1;  // seed 0 is reserved-feeling; avoid it
}

ExperimentParams SweepGrid::params_at(size_t index) const {
  check_axes(*this);
  if (index >= size()) throw std::invalid_argument("grid index out of range");
  const Coords c = decompose(*this, index);
  ExperimentParams p = base;
  p.kmax = kmax[c.kmax];
  p.bottleneck = Rate::kilobits_per_sec(bottleneck_kbps[c.bw]);
  p.rtt = TimeDelta::from_sec(rtt_ms[c.rtt] / 1000.0);
  p.bottleneck_loss_rate = loss_rate[c.loss];
  p.random_faults = faults[c.faults];
  p.backend = backends[c.backend];
  p.seed = derive_job_seed(*this, index);
  p.observability = nullptr;  // per-job hubs are not supported (see header)
  return p;
}

namespace {

// Single source of truth for the merged-artifact schema: every consumer
// (CSV header, CSV cells, rundiff fields) walks this visitor, so column
// order and counter/gauge classification can never drift apart.
// The callback receives (column, is_exact_count, numeric value, CSV cell).
template <typename F>
void for_each_cell(const SweepRow& r, F&& f) {
  auto count = [&f](const char* name, auto v) {
    f(name, true, static_cast<double>(v), std::to_string(v));
  };
  auto gauge = [&f](const char* name, double v) {
    f(name, false, v, canonical_double(v));
  };
  count("index", r.index);
  count("seed", r.seed);
  count("derived_seed", r.derived_seed);
  count("kmax", r.kmax);
  gauge("bottleneck_kbps", r.bottleneck_kbps);
  gauge("rtt_ms", r.rtt.sec() * 1e3);
  gauge("loss_rate", r.loss_rate);
  count("faults", r.faults);
  // Digest-exact on the enum value; the CSV cell carries the name.
  f("backend", true, static_cast<double>(static_cast<int>(r.backend)),
    std::string(cc::to_string(r.backend)));
  count("ok", r.ok ? 1 : 0);
  gauge("mean_layers", r.mean_layers);
  count("quality_changes", r.quality_changes);
  count("drops", r.drops);
  count("adds", r.adds);
  gauge("mean_efficiency", r.mean_efficiency);
  gauge("final_total_buffer", r.final_total_buffer);
  gauge("stall_s", r.stall_s);
  count("rebuffer_events", r.rebuffer_events);
  gauge("rebuffer_s", r.rebuffer_s);
  gauge("qa_mean_rate_bps", r.qa_mean_rate_bps);
  count("qa_packets", r.qa_packets);
  count("qa_losses", r.qa_losses);
  count("qa_backoffs", r.qa_backoffs);
  gauge("mean_rap_rate_bps", r.mean_rap_rate_bps);
  gauge("mean_tcp_rate_bps", r.mean_tcp_rate_bps);
}

}  // namespace

const std::vector<std::string>& sweep_columns() {
  static const std::vector<std::string> kColumns = [] {
    std::vector<std::string> cols;
    for_each_cell(SweepRow{}, [&cols](const char* name, bool, double,
                                      const std::string&) {
      cols.emplace_back(name);
    });
    return cols;
  }();
  return kColumns;
}

std::vector<std::string> sweep_row_cells(const SweepRow& r) {
  std::vector<std::string> cells;
  for_each_cell(r, [&cells](const char*, bool, double, std::string cell) {
    cells.push_back(std::move(cell));
  });
  return cells;
}

SweepResult run_sweep(const SweepGrid& grid, const SweepOptions& opts) {
  check_axes(grid);
  if (opts.jobs < 1) throw std::invalid_argument("jobs must be >= 1");
  if (opts.shard_count < 1 || opts.shard_index < 0 ||
      opts.shard_index >= opts.shard_count) {
    throw std::invalid_argument("bad shard spec (need 0 <= i < k)");
  }

  SweepResult result;
  result.grid_size = grid.size();
  result.jobs = opts.jobs;

  // This shard's grid points, ascending — the rows vector inherits that
  // order because each job writes only its own pre-assigned slot.
  std::vector<size_t> points;
  for (size_t i = static_cast<size_t>(opts.shard_index);
       i < result.grid_size; i += static_cast<size_t>(opts.shard_count)) {
    points.push_back(i);
  }
  result.rows.resize(points.size());

  // qa-analyzer: allow(wall-clock) — self-measured sweep wall time; lands
  // in wall_s / the wall_* report fields, which qa_diff ignores by contract.
  const auto start = std::chrono::steady_clock::now();
  std::atomic<size_t> cursor{0};
  std::atomic<size_t> completed{0};
  auto worker = [&grid, &points, &cursor, &completed, &opts, &result] {
    while (true) {
      const size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
      if (k >= points.size()) return;
      if (opts.on_job_start) opts.on_job_start(points[k]);
      result.rows[k] = run_point(grid, points[k]);
      if (opts.on_progress) {
        // acq_rel so the callback (running on whichever worker finished
        // last) observes a fully written row.
        const size_t done =
            completed.fetch_add(1, std::memory_order_acq_rel) + 1;
        opts.on_progress(result.rows[k], done, points.size());
      }
    }
  };

  const size_t workers = std::min(static_cast<size_t>(opts.jobs),
                                  std::max<size_t>(points.size(), 1));
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (size_t w = 0; w < workers; ++w) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }
  result.wall_s = std::chrono::duration<double>(
                      // qa-analyzer: allow(wall-clock) — closes the wall_s
                      // interval opened above; wall_* is qa_diff-exempt.
                      std::chrono::steady_clock::now() - start)
                      .count();

  if (!opts.out_dir.empty()) write_sweep_artifacts(result.rows, opts.out_dir);
  return result;
}

RunFields sweep_fields(const std::vector<SweepRow>& rows) {
  RunFields fields;
  auto put = [&fields](const std::string& metric, const char* kind,
                       double value) {
    RunField f;
    f.kind = kind;
    f.column = "value";
    f.value = value;
    fields[metric + ".value"] = std::move(f);
  };
  for (const SweepRow& r : rows) {
    char prefix[32];
    // Zero-padded so lexicographic field order equals grid order.
    std::snprintf(prefix, sizeof prefix, "sweep.r%06zu.", r.index);
    const std::string p = prefix;
    for_each_cell(r, [&put, &p](const char* name, bool is_count,
                                double value, const std::string&) {
      // Integral columns are counters (exact compare under rundiff);
      // measured doubles are gauges (tolerance compare).
      put(p + name, is_count ? "counter" : "gauge", value);
    });
  }
  return fields;
}

uint64_t sweep_digest(const std::vector<SweepRow>& rows) {
  return canonical_digest(sweep_fields(rows), RunDiffRules{});
}

void write_sweep_artifacts(const std::vector<SweepRow>& rows,
                           const std::string& out_dir) {
  CsvWriter csv(out_dir + "/sweep.csv", sweep_columns());
  for (const SweepRow& r : rows) csv.row_mixed(sweep_row_cells(r));

  // sweep.json in metrics.json shape, so qa_diff / util/rundiff can load,
  // diff, and digest merged sweeps exactly like single-run artifacts.
  std::string json = "{\n";
  const RunFields fields = sweep_fields(rows);
  bool first = true;
  for (const auto& [key, field] : fields) {
    const std::string metric = key.substr(0, key.size() - 6);  // ".value"
    if (!first) json += ",\n";
    first = false;
    json += "  " + json_quote(metric) + ": {\"kind\": " +
            json_quote(field.kind) + ", \"value\": " +
            json_number(field.value) + "}";
  }
  json += "\n}\n";
  write_text_file(out_dir + "/sweep.json", json);
}

namespace {

// Splits `s` on commas and converts every element with `conv`, which
// throws std::invalid_argument for an element it cannot take.
template <typename T, typename Conv>
std::vector<T> parse_list(const std::string& s, Conv conv) {
  std::vector<T> out;
  size_t pos = 0;
  while (pos <= s.size()) {
    const size_t comma = std::min(s.find(',', pos), s.size());
    const std::string token = s.substr(pos, comma - pos);
    if (token.empty()) {
      throw std::invalid_argument("empty element in list '" + s + "'");
    }
    out.push_back(conv(token));
    pos = comma + 1;
  }
  return out;
}

// One list element through a std::sto* conversion (`sto(&used)`), which
// must consume all of it: "x" and "1.5mm" are rejected by name instead of
// as a bare "stoi".
template <typename T, typename Sto>
T parse_number(const std::string& token, const char* want, Sto sto) {
  size_t used = 0;
  T value{};
  try {
    value = sto(&used);
  } catch (const std::logic_error&) {
    used = 0;  // std::invalid_argument or std::out_of_range
  }
  if (used != token.size()) {
    throw std::invalid_argument("invalid list element '" + token +
                                "' (want " + want + ")");
  }
  return value;
}

}  // namespace

std::vector<double> parse_double_list(const std::string& s) {
  return parse_list<double>(s, [](const std::string& t) {
    return parse_number<double>(
        t, "a number", [&t](size_t* used) { return std::stod(t, used); });
  });
}

std::vector<int> parse_int_list(const std::string& s) {
  return parse_list<int>(s, [](const std::string& t) {
    return parse_number<int>(
        t, "an integer", [&t](size_t* used) { return std::stoi(t, used); });
  });
}

std::vector<uint64_t> parse_u64_list(const std::string& s) {
  return parse_list<uint64_t>(s, [](const std::string& t) {
    return parse_number<uint64_t>(t, "an unsigned integer",
                                  [&t](size_t* used) {
                                    return static_cast<uint64_t>(
                                        std::stoull(t, used));
                                  });
  });
}

std::vector<cc::Backend> parse_backend_list(const std::string& s) {
  return parse_list<cc::Backend>(s, &cc::parse_backend);
}

}  // namespace qa::app

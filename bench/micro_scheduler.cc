// micro_scheduler — event-throughput benchmark of the scheduler hot path.
//
// Compares today's sim::Scheduler (4-ary heap over 24-byte items,
// pool-allocated event nodes, SmallFn callbacks) against a faithful
// replica of the previous implementation (binary std::push_heap over fat
// entries, per-event std::function, unordered_set live/cancelled
// bookkeeping) on the two patterns that dominate real simulations:
//
//   churn:  self-rescheduling chains (packet clocks, sampling probes) with
//           a capture too fat for std::function's inline buffer — pure
//           schedule/dispatch throughput;
//   timer:  schedule-then-cancel (RAP retransmission timers), where 3 of 4
//           events are cancelled before firing — exercises cancellation
//           and lazy compaction.
//
// Both schedulers run identical workloads through the same templated
// driver. Results print as a table and are recorded in BENCH_sched.json
// (ops/s per side, speedup, wall time, peak RSS) for the CI perf artifact.
//
//   micro_scheduler                      # default 2M ops per workload
//   micro_scheduler --ops 500000 --json /tmp/BENCH_sched.json
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "sim/scheduler.h"
#include "util/flags.h"
#include "util/host.h"
#include "util/json.h"
#include "util/time.h"

using namespace qa;

namespace {

// ---- Baseline: the previous scheduler, verbatim in structure. ------------
//
// Binary heap of fat entries (moved wholesale on every sift), a
// std::function per event, and two unordered_sets consulted on the
// schedule/cancel/pop paths. Kept self-contained here so the comparison
// survives future changes to sim::Scheduler.
class LegacyScheduler {
 public:
  using EventId = uint64_t;

  TimePoint now() const { return now_; }

  // The category is accepted for call-site parity and ignored: the
  // previous scheduler had no profiler.
  EventId schedule_at(TimePoint at, std::function<void()> fn,
                      sim::EventCategory /*category*/) {
    const EventId id = ++next_id_;
    heap_.push_back(Entry{at, next_seq_++, id, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    live_.insert(id);
    return id;
  }

  EventId schedule_after(TimeDelta delay, std::function<void()> fn,
                         sim::EventCategory category) {
    return schedule_at(now_ + delay, std::move(fn), category);
  }

  void cancel(EventId id) {
    if (live_.erase(id) == 0) return;
    cancelled_.insert(id);
    compact_if_worthwhile();
  }

  void run_until(TimePoint until) {
    while (true) {
      prune_top();
      if (heap_.empty() || heap_.front().at > until) break;
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      Entry e = std::move(heap_.back());
      heap_.pop_back();
      live_.erase(e.id);
      now_ = e.at;
      e.fn();
    }
    if (now_ < until) now_ = until;
  }

 private:
  struct Entry {
    TimePoint at;
    uint64_t seq = 0;
    EventId id = 0;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void compact_if_worthwhile() {
    if (cancelled_.size() < 64 || cancelled_.size() * 2 < heap_.size()) return;
    std::erase_if(heap_,
                  [&](const Entry& e) { return cancelled_.count(e.id) > 0; });
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    cancelled_.clear();
  }

  void prune_top() {
    while (!heap_.empty() && cancelled_.count(heap_.front().id) > 0) {
      cancelled_.erase(heap_.front().id);
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }

  TimePoint now_ = TimePoint::origin();
  uint64_t next_id_ = 0;
  uint64_t next_seq_ = 1;
  std::vector<Entry> heap_;
  std::unordered_set<EventId> live_;
  std::unordered_set<EventId> cancelled_;
};

// ---- Workloads (identical for both schedulers). --------------------------

// A capture the size of a realistic handler closure ("this" plus a few
// values): beyond std::function's inline buffer, within SmallFn's 48 bytes.
struct FatCapture {
  uint64_t* counter;
  void* self;
  double a, b, c;
};

// `width` self-rescheduling chains, each hopping 1 ms, until `ops` total
// dispatches. The dominant pattern of the simulator's steady state.
template <typename Sched>
double churn_workload(uint64_t ops, int width) {
  Sched s;
  uint64_t fired = 0;
  struct Chain {
    Sched* s;
    uint64_t* fired;
    uint64_t limit;
    FatCapture pad;  // copied with the functor on every reschedule
    void operator()() {
      ++*fired;
      if (*fired < limit) {
        s->schedule_after(TimeDelta::millis(1), *this,
                          sim::EventCategory::kGeneric);
      }
    }
  };
  const auto start = std::chrono::steady_clock::now();
  for (int w = 0; w < width; ++w) {
    s.schedule_after(TimeDelta::millis(1),
                     Chain{&s, &fired, ops, FatCapture{&fired, &s, 1, 2, 3}},
                     sim::EventCategory::kGeneric);
  }
  // Generously far horizon (the chains hop 1 ms and stop rescheduling at
  // `ops`, so they never come close to this).
  s.run_until(TimePoint::from_sec(1e6));
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  QA_CHECK(fired >= ops);
  return wall;
}

// Retransmission-timer pattern: schedule a timer per iteration, cancel
// 3 of 4 before they fire, drain periodically.
template <typename Sched>
double timer_workload(uint64_t ops) {
  Sched s;
  uint64_t fired = 0;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < ops; ++i) {
    const auto id = s.schedule_after(
        TimeDelta::millis(5), [&fired] { ++fired; },
        sim::EventCategory::kTransport);
    if (i % 4 != 0) s.cancel(id);
    if ((i & 1023) == 1023) {
      s.run_until(s.now() + TimeDelta::millis(1));
    }
  }
  s.run_until(s.now() + TimeDelta::seconds(1));
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  QA_CHECK(fired == (ops + 3) / 4);
  return wall;
}

struct Side {
  double churn_wall = 0;
  double timer_wall = 0;
  double total_wall() const { return churn_wall + timer_wall; }
  // One "op" = one scheduled event (dispatched or cancelled).
  double ops_per_sec(uint64_t ops) const {
    return total_wall() > 0 ? 2.0 * static_cast<double>(ops) / total_wall()
                            : 0;
  }
};

template <typename Sched>
Side run_side(uint64_t ops, int width, int repeats) {
  Side best;  // min-of-N: the usual noise filter for micro-benchmarks
  for (int r = 0; r < repeats; ++r) {
    const double churn = churn_workload<Sched>(ops, width);
    const double timer = timer_workload<Sched>(ops);
    if (r == 0 || churn < best.churn_wall) best.churn_wall = churn;
    if (r == 0 || timer < best.timer_wall) best.timer_wall = timer;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const uint64_t ops =
      static_cast<uint64_t>(flags.get_int("ops", 2'000'000));
  const int width = static_cast<int>(flags.get_int("width", 64));
  const int repeats = static_cast<int>(flags.get_int("repeats", 3));
  const std::string json_path =
      flags.get_or("json", bench::out_path("BENCH_sched.json"));
  const auto unused = flags.unused();
  if (!unused.empty()) {
    for (const auto& u : unused) {
      std::fprintf(stderr, "unknown flag --%s\n", u.c_str());
    }
    std::fprintf(stderr,
                 "micro_scheduler [--ops N] [--width N] [--repeats N] "
                 "[--json FILE]\n");
    return 1;
  }

  bench::banner("micro_scheduler: event throughput, legacy vs current");
  std::printf("ops per workload: %llu, chains: %d, repeats: %d (min taken)\n",
              static_cast<unsigned long long>(ops), width, repeats);

  const Side legacy = run_side<LegacyScheduler>(ops, width, repeats);
  const Side current = run_side<sim::Scheduler>(ops, width, repeats);

  const double base_ops = legacy.ops_per_sec(ops);
  const double opt_ops = current.ops_per_sec(ops);
  const double speedup = base_ops > 0 ? opt_ops / base_ops : 0;

  bench::TablePrinter table({"side", "churn_s", "timer_s", "Mops/s"});
  table.print_header();
  table.print_row({"legacy", bench::fmt(legacy.churn_wall, 3),
                   bench::fmt(legacy.timer_wall, 3),
                   bench::fmt(base_ops / 1e6, 2)});
  table.print_row({"current", bench::fmt(current.churn_wall, 3),
                   bench::fmt(current.timer_wall, 3),
                   bench::fmt(opt_ops / 1e6, 2)});
  std::printf("speedup: %.2fx\n", speedup);

  std::string json = "{\n";
  json += "  \"bench\": \"micro_scheduler\",\n";
  json += "  \"ops_per_workload\": " + json_number(ops) + ",\n";
  json += "  \"baseline_ops_per_sec\": " + json_number(base_ops) + ",\n";
  json += "  \"optimized_ops_per_sec\": " + json_number(opt_ops) + ",\n";
  json += "  \"speedup\": " + json_number(speedup) + ",\n";
  json += "  \"baseline_churn_wall_s\": " + json_number(legacy.churn_wall) +
          ",\n";
  json += "  \"baseline_timer_wall_s\": " + json_number(legacy.timer_wall) +
          ",\n";
  json += "  \"optimized_churn_wall_s\": " + json_number(current.churn_wall) +
          ",\n";
  json += "  \"optimized_timer_wall_s\": " + json_number(current.timer_wall) +
          ",\n";
  json += "  \"wall_s\": " +
          json_number(legacy.total_wall() + current.total_wall()) + ",\n";
  json += "  \"peak_rss_bytes\": " + json_number(peak_rss_bytes()) + "\n";
  json += "}\n";
  write_text_file(json_path, json);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

// Micro-benchmarks for the hot paths: the closed-form buffer math, the
// per-packet filling decision, the periodic drain plan, the state-sequence
// construction, and the raw simulator event loop. These quantify that the
// per-packet QA decision is cheap enough for a server handling many
// thousands of packets per second per stream. Each case prints its cost
// per iteration; the final checksum folds in every iteration's result.
//
//   micro_qa
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/buffer_math.h"
#include "core/draining_policy.h"
#include "core/filling_policy.h"
#include "core/quality_adapter.h"
#include "core/state_sequence.h"
#include "sim/profiler.h"
#include "sim/scheduler.h"
#include "tracedrive/bandwidth_trace.h"
#include "util/event.h"

namespace qa::core {
namespace {

const AimdModel kModel{10'000.0, 20'000.0};

// One iteration dispatches 1000 events; with a profiler attached every
// dispatch is timed, so the delta between the two cases is that cost.
int scheduler_mill(sim::SchedulerProfiler* prof) {
  sim::Scheduler sched;
  sched.set_profiler(prof);
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    sched.schedule_at(TimePoint::from_ns(i * 997 % 10'000),
                      [&fired] { ++fired; }, sim::EventCategory::kTransport);
  }
  sched.run_until(TimePoint::from_sec(1));
  return fired;
}

void run_all(bench::MicroBench& mb) {
  for (const int k : {1, 4, 8}) {
    mb.run("TotalBufRequired/" + std::to_string(k), [k] {
      return total_buf_required(Scenario::kSpread, k, 90'000, 5, kModel);
    });
  }

  mb.run("LayerBufRequired", [] {
    double sum = 0;
    for (int layer = 0; layer < 5; ++layer) {
      sum += layer_buf_required(Scenario::kSpread, 3, layer, 90'000, 5, kModel);
    }
    return sum;
  });

  for (const int na : {2, 5, 8}) {
    std::vector<double> bufs(static_cast<size_t>(na));
    for (int i = 0; i < na; ++i) bufs[static_cast<size_t>(i)] = 1000.0 * i;
    mb.run("PickFillLayer/" + std::to_string(na), [&bufs, na] {
      return pick_fill_layer(bufs, na, 12'000.0 * na, kModel, 4).layer;
    });
  }

  for (const int kmax : {2, 5, 8}) {
    mb.run("StateSequenceBuild/" + std::to_string(kmax), [kmax] {
      StateSequence seq(90'000, 5, kModel, kmax);
      return seq.states().size();
    });
  }

  const std::vector<double> drain_bufs = {9'000, 4'000, 1'500, 500, 0};
  mb.run("DrainPlan", [&drain_bufs] {
    return plan_drain_period(drain_bufs, 5, 30'000, 60'000, kModel, 4, 0.25)
        .planned_deficit;
  });

  for (const int kmax : {2, 5}) {
    AdapterConfig cfg;
    cfg.consumption_rate = 10'000;
    cfg.max_layers = 8;
    cfg.kmax = kmax;
    cfg.playout_delay = TimeDelta::zero();
    QualityAdapter adapter(cfg);
    adapter.begin(TimePoint::origin());
    double t = 0;
    mb.run("AdapterSendOpportunity/" + std::to_string(kmax), [&adapter, &t] {
      const int slot = adapter.on_send_opportunity(TimePoint::from_sec(t),
                                                   45'000, 20'000, 1000);
      t += 1000.0 / 45'000;
      return slot;
    });
  }

  mb.run("SchedulerThroughput", [] { return scheduler_mill(nullptr); });

  // The zero-cost-when-disabled contract: an Event with no subscribers must
  // stay a single empty() branch on the per-packet path.
  {
    Event<int64_t> ev;
    int64_t i = 0;
    mb.run("EventEmitNoSubscribers", [&ev, &i] {
      ev.emit(i);
      return i++;
    });
  }
  {
    Event<int64_t> ev;
    int64_t sum = 0;
    ev.subscribe([&sum](int64_t v) { sum += v; });
    int64_t i = 0;
    mb.run("EventEmitOneSubscriber", [&ev, &sum, &i] {
      ev.emit(i++);
      return sum;
    });
  }

  sim::SchedulerProfiler prof;
  mb.run("SchedulerThroughputProfiled",
         [&prof] { return scheduler_mill(&prof); });

  // Cost of one simulated second of trace-driven quality adaptation.
  {
    const auto traj = AimdTrajectory::sawtooth(30'000, 20'000, 50'000, 1.0);
    AdapterConfig cfg;
    cfg.consumption_rate = 10'000;
    cfg.max_layers = 6;
    cfg.kmax = 2;
    mb.run("TraceDrivenSecond", [&traj, &cfg] {
      return tracedrive::run_trace(traj, cfg, 1.0).packets_sent;
    });
  }

  // Sensitivity: drain planning period length (DESIGN.md §7).
  for (const int period_ms : {50, 250, 1000}) {
    const double period = period_ms / 1000.0;
    mb.run("DrainPlanPeriodSweep/" + std::to_string(period_ms),
           [&drain_bufs, period] {
             return plan_drain_period(drain_bufs, 5, 30'000, 60'000, kModel, 4,
                                      period)
                 .planned_deficit;
           });
  }
}

}  // namespace
}  // namespace qa::core

int main() {
  qa::bench::banner("Micro-benchmarks: QA hot paths and the event loop");
  qa::bench::MicroBench mb;
  qa::core::run_all(mb);
  mb.finish();
  return 0;
}

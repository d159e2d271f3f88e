// Figure 1: transmission rate of a single RAP flow (no fine-grain
// adaptation) over a bottleneck link — the AIMD sawtooth the quality
// adaptation mechanism is built around.
//
// The paper plots ~20 s of a flow hunting around the link bandwidth. We
// run one RAP flow on a dedicated bottleneck, record its instantaneous
// rate, and report the oscillation statistics: the sawtooth should cover
// roughly [0.5x, 1.2x] of the link rate with a regular period.
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "cc/cc_sink.h"
#include "cc/rap_source.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "sim/trace.h"

using namespace qa;

int main() {
  bench::banner("Figure 1: RAP sawtooth (single flow, drop-tail bottleneck)");

  const Rate link = Rate::kilobytes_per_sec(12);  // paper's ~10-13 kB/s scale
  sim::Network net;
  sim::DumbbellParams topo;
  topo.pairs = 1;
  topo.bottleneck_bw = link;
  topo.rtt = TimeDelta::millis(40);
  // A few packets of buffering: the default one-BDP floor would add ~300 ms
  // of queueing delay on a link this slow and stretch the sawtooth.
  topo.bottleneck_queue_bytes = 2000;
  sim::Dumbbell d = sim::build_dumbbell(net, topo);

  cc::CcParams params;
  params.packet_size = 500;
  params.initial_rate = Rate::kilobytes_per_sec(4);
  const sim::FlowId flow = net.allocate_flow_id();
  auto* src = net.adopt_agent(
      d.left[0], flow,
      std::make_unique<cc::RapSource>(&net.scheduler(), d.left[0],
                                      d.right[0]->id(), flow, params));
  auto* sink = net.adopt_agent(
      d.right[0], flow,
      std::make_unique<cc::CcSink>(&net.scheduler(), d.right[0]));

  // Sample the instantaneous rate every 100 ms over the fig-1 window.
  TimeSeries rate_series;
  const double duration = 40.0;
  for (int i = 1; i <= static_cast<int>(duration * 10); ++i) {
    const TimePoint at = TimePoint::from_sec(i * 0.1);
    net.scheduler().schedule_at(
        at, [&, at] { rate_series.add(at, src->rate().bps()); },
        sim::EventCategory::kProbe);
  }
  net.run(TimePoint::from_sec(duration));

  // Report over the settled window [20 s, 40 s] like the paper's axis.
  RunningStats settled;
  int backoff_like = 0;
  double prev = 0;
  for (const auto& pt : rate_series.points()) {
    if (pt.t.sec() < 20.0) continue;
    settled.add(pt.value);
    if (prev > 0 && pt.value < prev * 0.7) ++backoff_like;
    prev = pt.value;
  }

  bench::TablePrinter table({"metric", "value"}, 26);
  table.print_header();
  table.print_row({"link bandwidth (kB/s)", bench::fmt(link.kBps())});
  table.print_row({"mean rate (kB/s)", bench::fmt(settled.mean() / 1000)});
  table.print_row({"min rate (kB/s)", bench::fmt(settled.min() / 1000)});
  table.print_row({"max rate (kB/s)", bench::fmt(settled.max() / 1000)});
  table.print_row({"rate stddev (kB/s)", bench::fmt(settled.stddev() / 1000)});
  table.print_row({"backoffs detected", bench::fmt(src->backoffs(), 0)});
  table.print_row(
      {"goodput (kB/s)",
       bench::fmt(static_cast<double>(sink->bytes_received()) / duration /
                  1000)});

  bench::write_series_csv("fig01_rap_rate.csv", {"rate_bps"}, {&rate_series});

  std::printf(
      "\nPaper shape: regular sawtooth hunting around the link rate.\n"
      "Reproduced: mean within %.0f%% of link, oscillation span "
      "[%.1f, %.1f] kB/s, %d multiplicative drops in 20 s.\n",
      100.0 * settled.mean() / link.bps(), settled.min() / 1000,
      settled.max() / 1000, backoff_like);
  return 0;
}

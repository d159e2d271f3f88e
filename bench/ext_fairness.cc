// Extension study: TCP-friendliness of the quality-adaptive stream.
//
// The paper assumes RAP's TCP-friendliness and builds quality adaptation
// on top ("this paper is not about congestion control mechanisms"); this
// bench verifies the assumption holds in our substrate and that quality
// adaptation does NOT change the flow's aggressiveness (the adapter only
// redistributes what the congestion controller grants). Reports per-class
// goodput and Jain's fairness index for mixes of RAP and TCP flows, with
// and without the QA layer on the measured flow.
#include <cstdio>
#include <memory>

#include "app/session.h"
#include "bench_util.h"
#include "cc/cc_sink.h"
#include "cc/rap_source.h"
#include "sim/topology.h"
#include "tcp/tcp_sink.h"
#include "tcp/tcp_source.h"
#include "util/rng.h"

using namespace qa;

namespace {

struct MixResult {
  double rap_mean_goodput = 0;
  double tcp_mean_goodput = 0;
  double jain_all = 0;
};

MixResult run_mix(int rap_flows, int tcp_flows, bool qa_on_first,
                  double duration = 60.0) {
  sim::Network net;
  sim::DumbbellParams topo;
  topo.pairs = rap_flows + tcp_flows;
  topo.bottleneck_bw = Rate::kilobits_per_sec(800);
  topo.rtt = TimeDelta::millis(40);
  topo.bottleneck_queue_bytes = 50'000;
  sim::Dumbbell d = sim::build_dumbbell(net, topo);

  Rng rng(5);
  std::vector<cc::CcSink*> rap_sinks;
  std::vector<tcp::TcpSink*> tcp_sinks;
  std::unique_ptr<app::Session> session;

  for (int i = 0; i < rap_flows; ++i) {
    if (i == 0 && qa_on_first) {
      app::SessionConfig cfg;
      cfg.stream_layers = 8;
      cfg.layer_rate = Rate::bytes_per_sec(1'250);
      cfg.rap.packet_size = 250;
      cfg.rap.initial_rate = Rate::bytes_per_sec(1'250);
      session = std::make_unique<app::Session>(net, d.left[0], d.right[0], cfg);
      rap_sinks.push_back(&session->sink());
      continue;
    }
    cc::CcParams rp;
    rp.packet_size = 250;
    rp.initial_rate = Rate::bytes_per_sec(1'250);
    rp.start_time = TimePoint::from_sec(rng.uniform(0.0, 1.0));
    const sim::FlowId flow = net.allocate_flow_id();
    net.adopt_agent(d.left[i], flow,
                    std::make_unique<cc::RapSource>(&net.scheduler(),
                                                    d.left[i],
                                                    d.right[i]->id(), flow,
                                                    rp));
    rap_sinks.push_back(net.adopt_agent(
        d.right[i], flow,
        std::make_unique<cc::CcSink>(&net.scheduler(), d.right[i])));
  }
  for (int i = 0; i < tcp_flows; ++i) {
    const int pair = rap_flows + i;
    tcp::TcpParams tp;
    tp.mss_bytes = 250;
    tp.start_time = TimePoint::from_sec(rng.uniform(0.0, 1.0));
    const sim::FlowId flow = net.allocate_flow_id();
    net.adopt_agent(d.left[pair], flow,
                    std::make_unique<tcp::TcpSource>(&net.scheduler(),
                                                     d.left[pair],
                                                     d.right[pair]->id(),
                                                     flow, tp));
    tcp_sinks.push_back(net.adopt_agent(
        d.right[pair], flow,
        std::make_unique<tcp::TcpSink>(&net.scheduler(), d.right[pair])));
  }

  net.run(TimePoint::from_sec(duration));

  MixResult out;
  std::vector<double> all;
  for (auto* s : rap_sinks) {
    const double g = static_cast<double>(s->bytes_received()) / duration;
    out.rap_mean_goodput += g;
    all.push_back(g);
  }
  if (!rap_sinks.empty()) {
    out.rap_mean_goodput /= static_cast<double>(rap_sinks.size());
  }
  for (auto* s : tcp_sinks) {
    const double g =
        static_cast<double>(s->cumulative_ack()) * 250.0 / duration;
    out.tcp_mean_goodput += g;
    all.push_back(g);
  }
  if (!tcp_sinks.empty()) {
    out.tcp_mean_goodput /= static_cast<double>(tcp_sinks.size());
  }
  out.jain_all = jain_fairness(all);
  return out;
}

}  // namespace

int main() {
  bench::banner("Extension: inter-protocol fairness (800 Kb/s, 40 ms RTT)");
  bench::TablePrinter t({"mix", "rap_kBps", "tcp_kBps", "rap_to_tcp", "jain"},
                        14);
  t.print_header();
  struct Case {
    const char* name;
    int rap, tcp;
    bool qa;
  };
  const Case cases[] = {
      {"10 RAP/10 TCP", 10, 10, false},
      {"+QA on flow 0", 10, 10, true},
      {"4 RAP/4 TCP", 4, 4, false},
      {"16 RAP/4 TCP", 16, 4, false},
  };
  for (const Case& c : cases) {
    const MixResult r = run_mix(c.rap, c.tcp, c.qa);
    t.print_row({c.name, bench::fmt(r.rap_mean_goodput / 1000, 2),
                 bench::fmt(r.tcp_mean_goodput / 1000, 2),
                 bench::fmt(r.tcp_mean_goodput > 0
                                ? r.rap_mean_goodput / r.tcp_mean_goodput
                                : 0,
                            2),
                 bench::fmt(r.jain_all, 3)});
  }
  std::printf(
      "\nReading: RAP without fine-grain adaptation is somewhat more\n"
      "aggressive than TCP at sub-window operating points (known from the\n"
      "RAP paper); adding the QA layer on a flow leaves its share almost\n"
      "unchanged — quality adaptation only redistributes what congestion\n"
      "control grants, as the paper requires.\n");
  return 0;
}

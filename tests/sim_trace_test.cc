#include "sim/trace.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/network.h"

namespace qa::sim {
namespace {

class Sink : public Agent {
 public:
  void on_packet(const Packet&) override {}
};

TEST(PeriodicSampler, SamplesOnTheGrid) {
  Scheduler sched;
  double value = 0;
  PeriodicSampler sampler(&sched, TimeDelta::millis(100), [&] { return value; });
  sampler.start();
  sched.schedule_at(TimePoint::from_sec(0.25), [&] { value = 7; },
                    EventCategory::kGeneric);
  sched.run_until(TimePoint::from_sec(1.0));
  const auto& pts = sampler.series().points();
  ASSERT_EQ(pts.size(), 10u);
  EXPECT_EQ(pts[0].t, TimePoint::from_sec(0.1));
  EXPECT_DOUBLE_EQ(pts[0].value, 0.0);
  EXPECT_DOUBLE_EQ(pts[1].value, 0.0);   // t=0.2
  EXPECT_DOUBLE_EQ(pts[2].value, 7.0);   // t=0.3, after the change
  EXPECT_DOUBLE_EQ(pts[9].value, 7.0);
}

struct ProbeFixture : ::testing::Test {
  Network net;
  Node* a = net.add_node("a");
  Node* b = net.add_node("b");
  Link* ab = net.add_link(a, b, Rate::kilobytes_per_sec(100),
                          TimeDelta::millis(1),
                          std::make_unique<DropTailQueue>(1 << 20));
  Sink sink;

  void SetUp() override {
    b->attach_agent(1, &sink);
    b->attach_agent(2, &sink);
  }

  void send(FlowId flow, int n, int32_t size = 1000) {
    for (int i = 0; i < n; ++i) {
      Packet p;
      p.src = a->id();
      p.dst = b->id();
      p.flow_id = flow;
      p.size_bytes = size;
      a->send(p);
    }
  }
};

TEST_F(ProbeFixture, LinkRateProbeSeparatesFlows) {
  LinkRateProbe probe(&net.scheduler(), ab, TimeDelta::millis(500));
  probe.start();
  send(1, 20);  // 20 kB
  send(2, 10);  // 10 kB
  net.run(TimePoint::from_sec(1.0));
  // All 30 packets serialize within 0.3 s -> captured by the first window.
  const auto& f1 = probe.flow_series(1).points();
  const auto& f2 = probe.flow_series(2).points();
  ASSERT_FALSE(f1.empty());
  ASSERT_FALSE(f2.empty());
  EXPECT_DOUBLE_EQ(f1[0].value, 20'000.0 / 0.5);
  EXPECT_DOUBLE_EQ(f2[0].value, 10'000.0 / 0.5);
  EXPECT_DOUBLE_EQ(probe.total_series().points()[0].value, 30'000.0 / 0.5);
  // Second window: nothing sent.
  ASSERT_GE(f1.size(), 2u);
  EXPECT_DOUBLE_EQ(f1[1].value, 0.0);
}

TEST(PeriodicSampler, StopCancelsAndStartResumes) {
  Scheduler sched;
  PeriodicSampler sampler(&sched, TimeDelta::millis(100), [] { return 1.0; });
  sampler.start();
  EXPECT_TRUE(sampler.running());
  sched.run_until(TimePoint::from_sec(0.35));
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  sampler.stop();  // idempotent
  sched.run_until(TimePoint::from_sec(1.0));
  EXPECT_EQ(sampler.series().points().size(), 3u);  // 0.1 0.2 0.3 only
  sampler.start();
  sched.run_until(TimePoint::from_sec(1.25));
  // Sampling resumed on the new grid: 1.1 and 1.2.
  EXPECT_EQ(sampler.series().points().size(), 5u);
}

TEST_F(ProbeFixture, LinkRateProbeStopFlushesPartialTailWindow) {
  LinkRateProbe probe(&net.scheduler(), ab, TimeDelta::millis(500));
  probe.start();
  send(1, 20);  // 20 kB: 0.2 s of serialization at 100 kB/s
  // Stop mid-second-window, after the traffic has fully serialized.
  net.scheduler().schedule_at(TimePoint::from_sec(0.75), [&] { probe.stop(); },
                              EventCategory::kProbe);
  net.run(TimePoint::from_sec(2.0));
  const auto& pts = probe.flow_series(1).points();
  // Window 1 (full, 0.5 s) plus the flushed 0.25 s partial tail.
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].t, TimePoint::from_sec(0.5));
  EXPECT_DOUBLE_EQ(pts[0].value, 20'000.0 / 0.5);
  EXPECT_EQ(pts[1].t, TimePoint::from_sec(0.75));
  EXPECT_DOUBLE_EQ(pts[1].value, 0.0);  // nothing sent in the tail
  // Stopped: later windows never materialize.
  EXPECT_EQ(probe.total_series().points().size(), 2u);
}

TEST_F(ProbeFixture, LinkRateProbeStopBeforeAnyWindowKeepsPartialOnly) {
  LinkRateProbe probe(&net.scheduler(), ab, TimeDelta::millis(500));
  probe.start();
  send(1, 10);  // 10 kB in 0.1 s
  net.scheduler().schedule_at(TimePoint::from_sec(0.2), [&] { probe.stop(); },
                              EventCategory::kProbe);
  net.run(TimePoint::from_sec(1.0));
  const auto& pts = probe.flow_series(1).points();
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].t, TimePoint::from_sec(0.2));
  EXPECT_DOUBLE_EQ(pts[0].value, 10'000.0 / 0.2);
}

TEST_F(ProbeFixture, QueueProbeStopHaltsSampling) {
  QueueProbe probe(&net.scheduler(), ab, TimeDelta::millis(10));
  probe.start();
  send(1, 10);
  net.scheduler().schedule_at(TimePoint::from_sec(0.055),
                              [&] { probe.stop(); }, EventCategory::kProbe);
  net.run(TimePoint::from_sec(1.0));
  EXPECT_EQ(probe.series().points().size(), 5u);  // 10..50 ms
}

TEST_F(ProbeFixture, LinkRateProbeStopIsIdempotent) {
  LinkRateProbe probe(&net.scheduler(), ab, TimeDelta::millis(500));
  probe.start();
  EXPECT_TRUE(probe.running());
  send(1, 10);  // 10 kB in 0.1 s
  net.run(TimePoint::from_sec(0.2));
  probe.stop();
  EXPECT_FALSE(probe.running());
  const size_t after_first_stop = probe.flow_series(1).points().size();
  EXPECT_EQ(after_first_stop, 1u);  // the flushed partial window
  // A second stop must not flush a second (zero-length or duplicate)
  // tail point.
  probe.stop();
  EXPECT_EQ(probe.flow_series(1).points().size(), after_first_stop);
  EXPECT_EQ(probe.total_series().points().size(), after_first_stop);
  // stop() on a probe that never started is equally harmless.
  LinkRateProbe idle(&net.scheduler(), ab, TimeDelta::millis(500));
  EXPECT_FALSE(idle.running());
  idle.stop();
  EXPECT_TRUE(idle.total_series().empty());
}

TEST_F(ProbeFixture, ProbeDestructionWhileRunningLeavesSchedulerClean) {
  // A probe destroyed mid-run (stop() never called) must cancel its
  // pending event instead of leaving a dangling callback.
  {
    LinkRateProbe probe(&net.scheduler(), ab, TimeDelta::millis(500));
    probe.start();
    QueueProbe qprobe(&net.scheduler(), ab, TimeDelta::millis(10));
    qprobe.start();
    EXPECT_TRUE(qprobe.running());
    send(1, 5);
    net.run(TimePoint::from_sec(0.1));
  }
  // If a stale tick survived, this run would call into freed probes.
  net.run(TimePoint::from_sec(2.0));
}

TEST_F(ProbeFixture, QueueProbeStopIsIdempotent) {
  QueueProbe probe(&net.scheduler(), ab, TimeDelta::millis(10));
  probe.start();
  send(1, 10);
  net.run(TimePoint::from_sec(0.05));
  probe.stop();
  probe.stop();
  EXPECT_FALSE(probe.running());
  const size_t frozen = probe.series().points().size();
  net.run(TimePoint::from_sec(1.0));
  EXPECT_EQ(probe.series().points().size(), frozen);
}

TEST_F(ProbeFixture, UnknownFlowYieldsEmptySeries) {
  LinkRateProbe probe(&net.scheduler(), ab, TimeDelta::millis(500));
  probe.start();
  net.run(TimePoint::from_sec(1.0));
  EXPECT_TRUE(probe.flow_series(42).empty());
}

TEST(LinkRateProbe, ExportIsStableUnderFlowArrivalOrder) {
  // Regression for the unordered-iter hazard in flush(): window_bytes_
  // is an unordered map, and its bucket layout depends on insertion
  // order. Two runs that differ only in which flow touches the map
  // first (ascending vs descending flow ids, interleaved differently)
  // must export identical series for every flow — any dependence on
  // hash iteration order in the drain breaks this.
  constexpr int kFlows = 16;
  auto run = [](bool ascending) {
    Network net;
    Node* a = net.add_node("a");
    Node* b = net.add_node("b");
    Link* ab = net.add_link(a, b, Rate::kilobytes_per_sec(1000),
                            TimeDelta::millis(1),
                            std::make_unique<DropTailQueue>(1 << 20));
    Sink sink;
    for (int f = 1; f <= kFlows; ++f) b->attach_agent(f, &sink);
    LinkRateProbe probe(&net.scheduler(), ab, TimeDelta::millis(500));
    probe.start();
    for (int i = 0; i < kFlows; ++i) {
      const int f = ascending ? i + 1 : kFlows - i;
      for (int n = 0; n < f; ++n) {  // flow f sends f packets of 1 kB
        Packet p;
        p.src = a->id();
        p.dst = b->id();
        p.flow_id = f;
        p.size_bytes = 1000;
        a->send(p);
      }
    }
    net.run(TimePoint::from_sec(1.0));
    std::vector<std::vector<TimeSeries::Point>> out;
    for (int f = 1; f <= kFlows; ++f)
      out.push_back(probe.flow_series(f).points());
    out.push_back(probe.total_series().points());
    return out;
  };
  const auto fwd = run(true);
  const auto rev = run(false);
  ASSERT_EQ(fwd.size(), rev.size());
  for (size_t s = 0; s < fwd.size(); ++s) {
    ASSERT_EQ(fwd[s].size(), rev[s].size()) << "series " << s;
    for (size_t i = 0; i < fwd[s].size(); ++i) {
      EXPECT_EQ(fwd[s][i].t, rev[s][i].t) << "series " << s;
      EXPECT_DOUBLE_EQ(fwd[s][i].value, rev[s][i].value) << "series " << s;
    }
  }
  // And the values themselves: flow f serialized f kB inside window 1.
  for (int f = 1; f <= kFlows; ++f)
    EXPECT_DOUBLE_EQ(fwd[static_cast<size_t>(f - 1)][0].value,
                     f * 1000.0 / 0.5);
}

TEST_F(ProbeFixture, QueueProbeSeesBacklog) {
  QueueProbe probe(&net.scheduler(), ab, TimeDelta::millis(10));
  probe.start();
  // 100 packets at 100 kB/s take 1 s to serialize: the queue holds a
  // backlog through the early samples.
  send(1, 100);
  net.run(TimePoint::from_sec(2.0));
  const auto& pts = probe.series().points();
  ASSERT_GT(pts.size(), 100u);
  EXPECT_GT(pts[0].value, 50'000.0);  // most of the burst still queued
  EXPECT_DOUBLE_EQ(pts.back().value, 0.0);
}

}  // namespace
}  // namespace qa::sim

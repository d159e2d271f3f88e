// Fault injection: outages, teardown edge cases, runtime modulation,
// impairment windows, and the packet-conservation audit across all of them.
#include "sim/fault.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/link.h"
#include "sim/loss_model.h"
#include "sim/node.h"

namespace qa::sim {
namespace {

class Recorder : public Agent {
 public:
  explicit Recorder(Scheduler* sched) : sched_(sched) {}
  void on_packet(const Packet& p) override {
    arrivals.push_back({sched_->now(), p});
  }
  struct Arrival {
    TimePoint t;
    Packet p;
  };
  std::vector<Arrival> arrivals;

 private:
  Scheduler* sched_;
};

struct FaultFixture : ::testing::Test {
  Scheduler sched;
  Node dst{1, "dst"};
  Recorder recorder{&sched};

  void SetUp() override { dst.attach_agent(7, &recorder); }

  Packet make_packet(int32_t size) {
    Packet p;
    p.src = 0;
    p.dst = 1;
    p.flow_id = 7;
    p.size_bytes = size;
    return p;
  }

  // 1000 B at 100 kB/s = 10 ms serialization, 5 ms propagation.
  std::unique_ptr<Link> make_link(int64_t queue_bytes = 100'000) {
    return std::make_unique<Link>("l", &sched, &dst,
                                  Rate::kilobytes_per_sec(100),
                                  TimeDelta::millis(5),
                                  std::make_unique<DropTailQueue>(queue_bytes));
  }
};

TEST_F(FaultFixture, OutageKillsPacketMidSerialization) {
  auto link = make_link();
  link->submit(make_packet(1000));  // serialization completes at t=10ms
  sched.schedule_at(TimePoint::from_sec(0.005), [&] {
    OutagePolicy policy;
    policy.drop_in_flight = true;
    link->set_down(policy);
  }, EventCategory::kFault);
  sched.run_until(TimePoint::from_sec(1));
  EXPECT_TRUE(recorder.arrivals.empty());
  EXPECT_EQ(link->outage_drops(), 1);
  EXPECT_EQ(link->packets_delivered(), 0);
  link->audit_packet_conservation();
}

TEST_F(FaultFixture, OutageKillsPacketMidPropagation) {
  auto link = make_link();
  link->submit(make_packet(1000));  // on the wire 10..15 ms
  sched.schedule_at(TimePoint::from_sec(0.012), [&] {
    OutagePolicy policy;
    policy.drop_in_flight = true;
    link->set_down(policy);
  }, EventCategory::kFault);
  sched.run_until(TimePoint::from_sec(1));
  EXPECT_TRUE(recorder.arrivals.empty());
  EXPECT_EQ(link->outage_drops(), 1);
  link->audit_packet_conservation();
}

TEST_F(FaultFixture, GentleOutageLetsInFlightPacketLand) {
  auto link = make_link();
  link->submit(make_packet(1000));
  sched.schedule_at(TimePoint::from_sec(0.012), [&] {
    OutagePolicy policy;
    policy.drop_in_flight = false;
    link->set_down(policy);
  }, EventCategory::kFault);
  sched.run_until(TimePoint::from_sec(1));
  ASSERT_EQ(recorder.arrivals.size(), 1u);
  EXPECT_EQ(recorder.arrivals[0].t, TimePoint::from_sec(0.015));
  EXPECT_EQ(link->outage_drops(), 0);
  link->audit_packet_conservation();
}

TEST_F(FaultFixture, QueueSurvivesOutageAndDrainsOnRestore) {
  auto link = make_link();
  OutagePolicy keep;
  keep.drop_queued = false;
  keep.drop_in_flight = true;
  link->set_down(keep);
  for (int i = 0; i < 3; ++i) link->submit(make_packet(1000));
  EXPECT_EQ(link->queue().packets(), 3u);
  sched.schedule_at(TimePoint::from_sec(0.1), [&] { link->set_up(); },
                    EventCategory::kFault);
  sched.run_until(TimePoint::from_sec(1));
  // All three drain after restore, spaced by serialization.
  ASSERT_EQ(recorder.arrivals.size(), 3u);
  EXPECT_EQ(recorder.arrivals[0].t, TimePoint::from_sec(0.115));
  EXPECT_EQ(recorder.arrivals[2].t, TimePoint::from_sec(0.135));
  EXPECT_EQ(link->outage_drops(), 0);
  link->audit_packet_conservation();
}

TEST_F(FaultFixture, DropQueuedFlushesQueueAtOutage) {
  auto link = make_link();
  for (int i = 0; i < 4; ++i) link->submit(make_packet(1000));
  // At t=5ms: one serializing, three queued.
  sched.schedule_at(TimePoint::from_sec(0.005), [&] {
    OutagePolicy policy;
    policy.drop_queued = true;
    policy.drop_in_flight = true;
    link->set_down(policy);
  }, EventCategory::kFault);
  sched.run_until(TimePoint::from_sec(1));
  EXPECT_TRUE(recorder.arrivals.empty());
  EXPECT_EQ(link->outage_drops(), 4);  // 1 serializing + 3 flushed
  EXPECT_EQ(link->queue().packets(), 0u);
  link->audit_packet_conservation();
}

TEST_F(FaultFixture, DropArrivalsRefusesSubmissionsWhileDown) {
  auto link = make_link();
  OutagePolicy policy;
  policy.drop_arrivals = true;
  link->set_down(policy);
  for (int i = 0; i < 3; ++i) link->submit(make_packet(1000));
  EXPECT_EQ(link->outage_drops(), 3);
  EXPECT_EQ(link->queue().packets(), 0u);
  link->set_up();
  link->submit(make_packet(1000));
  sched.run_until(TimePoint::from_sec(1));
  EXPECT_EQ(recorder.arrivals.size(), 1u);
  link->audit_packet_conservation();
}

TEST_F(FaultFixture, ConservationHoldsAcrossOutageWithTrafficInEveryStage) {
  auto link = make_link(2'500);  // queue fits 2.5 packets -> queue drops too
  // Continuous offered load across the outage.
  for (int i = 0; i < 50; ++i) {
    sched.schedule_at(TimePoint::from_sec(0.004 * i),
                      [&] { link->submit(make_packet(1000)); },
                      EventCategory::kTransport);
  }
  OutagePolicy policy;
  policy.drop_in_flight = true;
  sched.schedule_at(TimePoint::from_sec(0.05), [&] { link->set_down(policy); },
                    EventCategory::kFault);
  sched.schedule_at(TimePoint::from_sec(0.1), [&] { link->set_up(); },
                    EventCategory::kFault);
  // Audit at instants straddling the transitions (the link also self-audits
  // after every internal event; QA_INVARIANT aborts the test on violation).
  for (double t : {0.049, 0.051, 0.099, 0.101, 0.5}) {
    sched.schedule_at(TimePoint::from_sec(t),
                      [&] { link->audit_packet_conservation(); },
                      EventCategory::kProbe);
  }
  sched.run_until(TimePoint::from_sec(1));
  EXPECT_EQ(link->packets_submitted(), 50);
  EXPECT_EQ(link->packets_delivered() + link->outage_drops() +
                link->queue().total_drops(),
            50);
  EXPECT_GT(link->outage_drops(), 0);
  link->audit_packet_conservation();
}

TEST_F(FaultFixture, InjectorOutageDownAndRestoreOnSchedule) {
  auto link = make_link();
  FaultInjector inj(&sched);
  inj.outage(link.get(), TimePoint::from_sec(0.1), TimeDelta::millis(100));
  sched.schedule_at(TimePoint::from_sec(0.15),
                    [&] { EXPECT_FALSE(link->is_up()); },
                    EventCategory::kProbe);
  sched.schedule_at(TimePoint::from_sec(0.25),
                    [&] { EXPECT_TRUE(link->is_up()); },
                    EventCategory::kProbe);
  sched.run_until(TimePoint::from_sec(1));
  EXPECT_EQ(link->outages(), 1);
  EXPECT_EQ(inj.faults_scheduled(), 1);
}

TEST_F(FaultFixture, NestedOutagesRestoreOnlyWhenLastEnds) {
  auto link = make_link();
  FaultInjector inj(&sched);
  inj.outage(link.get(), TimePoint::from_sec(0.1), TimeDelta::millis(200));
  inj.outage(link.get(), TimePoint::from_sec(0.2), TimeDelta::millis(200));
  sched.schedule_at(TimePoint::from_sec(0.35),
                    [&] { EXPECT_FALSE(link->is_up()); },  // first ended
                    EventCategory::kProbe);
  sched.schedule_at(TimePoint::from_sec(0.45),
                    [&] { EXPECT_TRUE(link->is_up()); },
                    EventCategory::kProbe);
  sched.run_until(TimePoint::from_sec(1));
  EXPECT_EQ(link->outages(), 1);  // one physical down/up pair
}

TEST_F(FaultFixture, FlapCyclesLink) {
  auto link = make_link();
  FaultInjector inj(&sched);
  inj.flap(link.get(), TimePoint::from_sec(0.1), 3, TimeDelta::millis(50),
           TimeDelta::millis(50));
  sched.run_until(TimePoint::from_sec(1));
  EXPECT_TRUE(link->is_up());
  EXPECT_EQ(link->outages(), 3);
}

TEST_F(FaultFixture, BandwidthWindowRestoresOriginal) {
  auto link = make_link();
  FaultInjector inj(&sched);
  inj.bandwidth_window(link.get(), TimePoint::from_sec(0.1),
                       TimeDelta::millis(100), Rate::kilobytes_per_sec(10));
  sched.schedule_at(TimePoint::from_sec(0.15), [&] {
    EXPECT_DOUBLE_EQ(link->bandwidth().bps(), 10'000.0);
  }, EventCategory::kProbe);
  sched.run_until(TimePoint::from_sec(1));
  EXPECT_DOUBLE_EQ(link->bandwidth().bps(), 100'000.0);
}

TEST_F(FaultFixture, DelayWindowRestoresOriginal) {
  auto link = make_link();
  FaultInjector inj(&sched);
  inj.delay_window(link.get(), TimePoint::from_sec(0.1),
                   TimeDelta::millis(100), TimeDelta::millis(80));
  sched.schedule_at(TimePoint::from_sec(0.15), [&] {
    EXPECT_EQ(link->prop_delay(), TimeDelta::millis(80));
  }, EventCategory::kProbe);
  sched.run_until(TimePoint::from_sec(1));
  EXPECT_EQ(link->prop_delay(), TimeDelta::millis(5));
}

TEST_F(FaultFixture, BandwidthChangeAppliesFromNextPacket) {
  auto link = make_link();
  link->submit(make_packet(1000));  // serializes 0..10 ms at 100 kB/s
  link->submit(make_packet(1000));  // then 10..110 ms at 10 kB/s
  sched.schedule_at(TimePoint::from_sec(0.005), [&] {
    link->set_bandwidth(Rate::kilobytes_per_sec(10));
  }, EventCategory::kFault);
  sched.run_until(TimePoint::from_sec(1));
  ASSERT_EQ(recorder.arrivals.size(), 2u);
  // First packet finishes at the old bandwidth.
  EXPECT_EQ(recorder.arrivals[0].t, TimePoint::from_sec(0.015));
  EXPECT_EQ(recorder.arrivals[1].t, TimePoint::from_sec(0.115));
}

TEST_F(FaultFixture, LossWindowInstallsAndClearsModel) {
  auto link = make_link();
  FaultInjector inj(&sched);
  GilbertElliottLoss::Params ge;
  ge.p_good_to_bad = 1.0;  // always bad
  ge.p_bad_to_good = 0.0;
  ge.loss_bad = 1.0;  // drop everything
  inj.loss_window(link.get(), TimePoint::from_sec(0.1), TimeDelta::millis(100),
                  ge, 9);
  // One packet before, one during, one after the window.
  sched.schedule_at(TimePoint::from_sec(0.05),
                    [&] { link->submit(make_packet(1000)); },
                    EventCategory::kTransport);
  sched.schedule_at(TimePoint::from_sec(0.15),
                    [&] { link->submit(make_packet(1000)); },
                    EventCategory::kTransport);
  sched.schedule_at(TimePoint::from_sec(0.3),
                    [&] { link->submit(make_packet(1000)); },
                    EventCategory::kTransport);
  sched.run_until(TimePoint::from_sec(1));
  EXPECT_EQ(recorder.arrivals.size(), 2u);
  EXPECT_EQ(link->wire_drops(), 1);
  link->audit_packet_conservation();
}

TEST_F(FaultFixture, ImpairmentWindowDuplicatesAreDelivered) {
  auto link = make_link();
  FaultInjector inj(&sched);
  ReorderDupImpairment::Params rp;
  rp.p_duplicate = 1.0;  // duplicate everything in the window
  inj.impairment_window(link.get(), TimePoint::from_sec(0.1),
                        TimeDelta::millis(100), rp, 10);
  sched.schedule_at(TimePoint::from_sec(0.15),
                    [&] { link->submit(make_packet(1000)); },
                    EventCategory::kTransport);
  sched.run_until(TimePoint::from_sec(1));
  // Original + duplicate, duplicate one serialization time behind.
  ASSERT_EQ(recorder.arrivals.size(), 2u);
  EXPECT_EQ(recorder.arrivals[1].t - recorder.arrivals[0].t,
            TimeDelta::millis(10));
  EXPECT_EQ(link->duplicates_injected(), 1);
  EXPECT_EQ(link->packets_delivered(), 2);
  link->audit_packet_conservation();
}

TEST_F(FaultFixture, ReorderDelayCausesOvertaking) {
  auto link = make_link();
  // Hold back only the first packet long enough for the second to pass it.
  class HoldFirst : public WireImpairment {
   public:
    WireEffect on_packet(const Packet&, TimePoint) override {
      WireEffect e;
      if (first_) {
        first_ = false;
        e.extra_delay = TimeDelta::millis(50);
      }
      return e;
    }

   private:
    bool first_ = true;
  };
  link->set_impairment(std::make_unique<HoldFirst>());
  Packet a = make_packet(1000);
  a.seq = 1;
  Packet b = make_packet(1000);
  b.seq = 2;
  link->submit(a);
  link->submit(b);
  sched.run_until(TimePoint::from_sec(1));
  ASSERT_EQ(recorder.arrivals.size(), 2u);
  EXPECT_EQ(recorder.arrivals[0].p.seq, 2);  // overtook the held-back packet
  EXPECT_EQ(recorder.arrivals[1].p.seq, 1);
  link->audit_packet_conservation();
}

TEST_F(FaultFixture, RandomScheduleIsDeterministicPerSeed) {
  auto link_a = make_link();
  auto link_b = make_link();
  ChaosProfile profile;
  profile.start = TimePoint::from_sec(1);
  profile.window = TimeDelta::seconds(10);
  profile.faults = 6;
  FaultInjector inj1(&sched);
  FaultInjector inj2(&sched);
  Rng rng1(123), rng2(123);
  inject_random_faults(inj1, link_a.get(), link_b.get(), rng1, profile);
  inject_random_faults(inj2, link_a.get(), link_b.get(), rng2, profile);
  // A flap schedules one outage primitive per cycle, so the primitive count
  // can exceed the requested fault count — but never fall below it, and the
  // two equal-seed schedules must agree exactly.
  EXPECT_GE(inj1.faults_scheduled(), 6);
  EXPECT_EQ(inj1.faults_scheduled(), inj2.faults_scheduled());
  // Equal seeds draw identical schedules: both generators consumed the same
  // sequence, so their next outputs still agree.
  EXPECT_EQ(rng1.next_u64(), rng2.next_u64());
}

}  // namespace
}  // namespace qa::sim

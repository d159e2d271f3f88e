// Negative tests for the scheduler's contracts plus regression pins for
// the cancellation memory-reclaim behaviour (lazy deletion + compaction).
#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "util/check.h"

namespace qa::sim {
namespace {

class ScopedThrowSink {
 public:
  ScopedThrowSink() : prev_(check_sink()) {
    set_check_sink(CheckSink::kThrow);
  }
  ~ScopedThrowSink() { set_check_sink(prev_); }

 private:
  CheckSink prev_;
};

TEST(SchedulerContract, RejectsSchedulingIntoThePast) {
  ScopedThrowSink sink;
  Scheduler s;
  s.run_until(TimePoint::from_sec(5.0));
  EXPECT_THROW(s.schedule_at(TimePoint::from_sec(4.0), [] {},
                             EventCategory::kGeneric),
               CheckFailure);
  // The failed schedule must not have left a phantom event behind.
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(SchedulerContract, RejectsNegativeDelay) {
  ScopedThrowSink sink;
  Scheduler s;
  EXPECT_THROW(s.schedule_after(TimeDelta::nanos(-1), [] {},
                                EventCategory::kGeneric),
               CheckFailure);
}

TEST(SchedulerContract, SchedulingAtNowIsAllowed) {
  Scheduler s;
  s.run_until(TimePoint::from_sec(1.0));
  bool ran = false;
  s.schedule_at(s.now(), [&] { ran = true; }, EventCategory::kGeneric);
  s.run_until(s.now());
  EXPECT_TRUE(ran);
}

TEST(SchedulerReclaim, CancelOfFiredIdDoesNotGrowBacklog) {
  Scheduler s;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(s.schedule_after(TimeDelta::millis(i), [] {},
                                   EventCategory::kGeneric));
  }
  s.run_until(TimePoint::from_sec(1.0));
  // The fire-then-cancel timer pattern: every id is stale by now.
  for (const EventId id : ids) s.cancel(id);
  EXPECT_EQ(s.cancelled_backlog(), 0u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(SchedulerReclaim, MassCancellationCompactsTheHeap) {
  Scheduler s;
  constexpr int kEvents = 1000;
  std::vector<EventId> ids;
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(s.schedule_after(TimeDelta::millis(i + 1), [] {},
                                   EventCategory::kGeneric));
  }
  for (const EventId id : ids) s.cancel(id);
  EXPECT_EQ(s.pending_events(), 0u);
  // Without compaction every cancelled id would sit in the lazy-deletion
  // set until its entry surfaced at the heap top (i.e. all 1000 here).
  EXPECT_LT(s.cancelled_backlog(), kEvents / 4);
}

TEST(SchedulerReclaim, CompactionReleasesCancelledCallableState) {
  Scheduler s;
  constexpr int kEvents = 1000;
  auto payload = std::make_shared<int>(42);
  std::vector<EventId> ids;
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(
        s.schedule_after(TimeDelta::millis(i + 1), [payload] { (void)*payload; },
                         EventCategory::kGeneric));
  }
  EXPECT_EQ(payload.use_count(), 1 + kEvents);
  for (const EventId id : ids) s.cancel(id);
  // Exactly the entries still awaiting lazy deletion may hold a copy; the
  // compacted ones must have released theirs.
  EXPECT_EQ(payload.use_count(),
            1 + static_cast<long>(s.cancelled_backlog()));
  EXPECT_LT(payload.use_count(), 1 + kEvents / 4);
  // Draining the queue releases the rest.
  s.run_until(TimePoint::from_sec(10.0));
  EXPECT_EQ(payload.use_count(), 1);
  EXPECT_EQ(s.cancelled_backlog(), 0u);
}

TEST(SchedulerReclaim, InterleavedCancelKeepsSurvivorsIntact) {
  Scheduler s;
  constexpr int kEvents = 600;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(s.schedule_after(TimeDelta::millis(i + 1), [&] { ++fired; },
                                   EventCategory::kGeneric));
  }
  // Cancel every other event; compaction along the way must not disturb
  // ordering or drop survivors.
  for (size_t i = 0; i < ids.size(); i += 2) s.cancel(ids[i]);
  s.run_until(TimePoint::from_sec(5.0));
  EXPECT_EQ(fired, kEvents / 2);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.cancelled_backlog(), 0u);
}

TEST(SchedulerReclaim, DoubleCancelIsIdempotent) {
  Scheduler s;
  const EventId id = s.schedule_after(TimeDelta::millis(1), [] {},
                                      EventCategory::kGeneric);
  s.schedule_after(TimeDelta::millis(2), [] {}, EventCategory::kGeneric);
  s.cancel(id);
  const size_t backlog = s.cancelled_backlog();
  s.cancel(id);  // second cancel of the same id: no double bookkeeping
  EXPECT_EQ(s.cancelled_backlog(), backlog);
  EXPECT_EQ(s.pending_events(), 1u);
}

}  // namespace
}  // namespace qa::sim

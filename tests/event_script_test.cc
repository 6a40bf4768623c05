// EventScript: the failure timelines a run replays (validation, ordering at
// equal times, outage windows, the replica set, and the wedge detector's
// "nothing left to happen" test).

#include "src/control/event_script.h"

#include <gtest/gtest.h>

namespace bds {
namespace {

ControllerReplicaSet::Options Replicas(int n) {
  ControllerReplicaSet::Options o;
  o.num_replicas = n;
  return o;
}

TEST(EventScriptTest, EqualTimeServerEventsApplyInScheduledOrder) {
  // Forty events at one instant: past the size where an unstable sort of
  // the queue stops looking stable.
  constexpr int kServers = 20;
  EventScript script(kServers, Replicas(3));
  for (ServerId s = 0; s < kServers; ++s) {
    ASSERT_TRUE(script.ScheduleServerFailure(s, 1.0).ok());
    ASSERT_TRUE(script.ScheduleServerRecovery(s, 1.0).ok());
  }
  EXPECT_FALSE(script.TakeServerEvent(0.5).has_value());
  for (ServerId s = 0; s < kServers; ++s) {
    for (bool recovery : {false, true}) {
      std::optional<EventScript::Event> e = script.TakeServerEvent(1.0);
      ASSERT_TRUE(e.has_value());
      EXPECT_EQ(e->target, s);
      EXPECT_EQ(e->recovery, recovery);
    }
  }
  EXPECT_FALSE(script.TakeServerEvent(1.0).has_value());
}

TEST(EventScriptTest, EqualTimeReplicaEventsLeaveEveryReplicaUp) {
  constexpr int kReplicas = 20;
  EventScript script(4, Replicas(kReplicas));
  for (int r = 0; r < kReplicas; ++r) {
    ASSERT_TRUE(script.ScheduleReplicaFailure(r, 1.0).ok());
    ASSERT_TRUE(script.ScheduleReplicaRecovery(r, 1.0).ok());
  }
  script.ApplyReplicaEvents(1.0);
  for (int r = 0; r < kReplicas; ++r) {
    EXPECT_TRUE(script.replicas().alive(r)) << "replica " << r;
  }
}

TEST(EventScriptTest, ServerEventsPopInTimeOrder) {
  EventScript script(3, Replicas(3));
  ASSERT_TRUE(script.ScheduleServerFailure(0, 5.0).ok());
  ASSERT_TRUE(script.ScheduleServerFailure(1, 2.0).ok());
  ASSERT_TRUE(script.ScheduleServerFailure(2, 2.0).ok());
  EXPECT_FALSE(script.TakeServerEvent(1.0).has_value());
  EXPECT_EQ(script.TakeServerEvent(3.0)->target, 1);
  EXPECT_EQ(script.TakeServerEvent(3.0)->target, 2);
  EXPECT_FALSE(script.TakeServerEvent(3.0).has_value());
  // An event scheduled mid-run for an earlier time applies next.
  ASSERT_TRUE(script.ScheduleServerRecovery(1, 2.5).ok());
  EXPECT_EQ(script.TakeServerEvent(3.0)->target, 1);
  EXPECT_EQ(script.TakeServerEvent(5.0)->target, 0);
}

TEST(EventScriptTest, RejectsMalformedEvents) {
  EventScript script(2, Replicas(3));
  EXPECT_FALSE(script.ScheduleServerFailure(2, 1.0).ok());
  EXPECT_FALSE(script.ScheduleServerFailure(-1, 1.0).ok());
  EXPECT_FALSE(script.ScheduleServerFailure(0, -1.0).ok());
  EXPECT_FALSE(script.ScheduleServerRecovery(0, 1.0).ok());  // Never failed.
  ASSERT_TRUE(script.ScheduleServerFailure(0, 1.0).ok());
  EXPECT_FALSE(script.ScheduleServerFailure(0, 2.0).ok());   // Already failed.
  EXPECT_FALSE(script.ScheduleServerRecovery(0, 0.5).ok());  // Before the failure.
  ASSERT_TRUE(script.ScheduleServerRecovery(0, 1.0).ok());   // Same instant: after it.
  EXPECT_FALSE(script.ScheduleServerRecovery(0, 3.0).ok());  // Already recovered.
  EXPECT_FALSE(script.ScheduleReplicaFailure(3, 1.0).ok());
  EXPECT_FALSE(script.ScheduleReplicaRecovery(0, -1.0).ok());
  EXPECT_TRUE(script.ScheduleReplicaRecovery(0, 1.0).ok());  // Idempotent: no replay.
  EXPECT_FALSE(script.ScheduleControllerOutage(5.0, 5.0).ok());
  EXPECT_FALSE(script.ScheduleControllerOutage(-1.0, 5.0).ok());
}

TEST(EventScriptTest, ControllerUpOutsideOutagesWhileAMasterServes) {
  EventScript script(2, Replicas(1));
  ASSERT_TRUE(script.ScheduleControllerOutage(2.0, 4.0).ok());
  ASSERT_TRUE(script.ScheduleReplicaFailure(0, 6.0).ok());
  ASSERT_TRUE(script.ScheduleReplicaRecovery(0, 8.0).ok());
  EXPECT_TRUE(script.ControllerUp(1.0));
  EXPECT_FALSE(script.ControllerUp(2.0));
  EXPECT_FALSE(script.ControllerUp(3.9));
  EXPECT_TRUE(script.ControllerUp(4.0));
  script.ApplyReplicaEvents(6.0);
  EXPECT_FALSE(script.ControllerUp(6.0));  // Headless: the only replica is down.
  script.ApplyReplicaEvents(8.0);
  EXPECT_TRUE(script.replicas().alive(0));
}

TEST(EventScriptTest, ExhaustedOnlyOnceNothingIsLeftToHappen) {
  EventScript script(2, Replicas(3));
  EXPECT_TRUE(script.Exhausted(0.0));
  ASSERT_TRUE(script.ScheduleControllerOutage(5.0, 6.0).ok());
  EXPECT_FALSE(script.Exhausted(0.0));  // An outage is still ahead.
  EXPECT_TRUE(script.Exhausted(5.0));
  ASSERT_TRUE(script.ScheduleServerFailure(1, 7.0).ok());
  ASSERT_TRUE(script.ScheduleReplicaFailure(2, 7.0).ok());
  EXPECT_FALSE(script.Exhausted(7.0));
  ASSERT_TRUE(script.TakeServerEvent(7.0).has_value());
  EXPECT_FALSE(script.Exhausted(7.0));  // The replica event is still queued.
  script.ApplyReplicaEvents(7.0);
  EXPECT_TRUE(script.Exhausted(7.0));
}

}  // namespace
}  // namespace bds

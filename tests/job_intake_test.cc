// JobIntake: the job script, open-loop arrivals, admission with its defer
// FIFO, and the one Drained() predicate the run loop stops on.

#include "src/control/job_intake.h"

#include <gtest/gtest.h>

#include "src/topology/builders.h"

namespace bds {
namespace {

Topology Mesh() { return BuildFullMesh(3, 2, Gbps(1.0), MBps(20.0), MBps(20.0)).value(); }

MulticastJob Job(JobId id, std::vector<DcId> dests, SimTime arrival) {
  return MakeJob(id, 0, std::move(dests), MB(8.0), MB(2.0), arrival).value();
}

TEST(JobIntakeTest, ScriptJobsEnterWhenDueInArrivalOrder) {
  Topology topo = Mesh();
  ReplicaState state(&topo);
  JobIntake intake;
  ASSERT_TRUE(intake.Submit(Job(0, {1}, 10.0), topo.num_dcs()).ok());
  ASSERT_TRUE(intake.Submit(Job(1, {2}, 0.0), topo.num_dcs()).ok());
  EXPECT_FALSE(intake.Submit(Job(2, {7}, 0.0), topo.num_dcs()).ok());  // No DC 7.
  EXPECT_FALSE(intake.Drained());

  EXPECT_TRUE(intake.AdmitDue(0.0, state, nullptr));
  EXPECT_NE(state.FindJob(1), nullptr);
  EXPECT_EQ(state.FindJob(0), nullptr);
  EXPECT_FALSE(intake.Drained());
  EXPECT_EQ(intake.active_dcs(), (std::vector<DcId>{0, 2}));

  EXPECT_FALSE(intake.AdmitDue(5.0, state, nullptr));
  EXPECT_TRUE(intake.AdmitDue(10.0, state, nullptr));
  EXPECT_NE(state.FindJob(0), nullptr);
  EXPECT_TRUE(intake.Drained());
  EXPECT_EQ(intake.active_dcs(), (std::vector<DcId>{0, 2, 1}));
  // Script jobs bypass admission control.
  EXPECT_EQ(intake.admission().stats().offered, 0);
}

TEST(JobIntakeTest, AdmittedJobsReachTheView) {
  Topology topo = Mesh();
  ReplicaState state(&topo);
  ReplicaState view(&topo);
  JobIntake intake;
  ASSERT_TRUE(intake.Submit(Job(3, {1, 2}, 0.0), topo.num_dcs()).ok());
  EXPECT_TRUE(intake.AdmitDue(0.0, state, &view));
  EXPECT_EQ(state.num_pending(), view.num_pending());
  EXPECT_EQ(view.num_pending(), 4 * 2);  // 8 MB / 2 MB blocks x 2 dest DCs.
}

TEST(JobIntakeTest, DrainedWaitsForTheArrivalProcessToStop) {
  Topology topo = Mesh();
  ReplicaState state(&topo);
  ArrivalProcessOptions ap;
  ap.num_dcs = topo.num_dcs();
  ap.jobs_per_hour = 3600.0;
  ap.size_scale = 1e-6;
  ArrivalProcess arrivals(ap);
  JobIntake intake;
  const SimTime stop = arrivals.NextArrivalTime() + 1e-3;  // Exactly one arrival.
  intake.SetArrivalProcess(&arrivals, stop);
  EXPECT_FALSE(intake.Drained());
  EXPECT_TRUE(intake.AdmitDue(stop, state, nullptr));
  EXPECT_EQ(intake.admission().stats().offered, 1);
  EXPECT_TRUE(intake.Drained());
  EXPECT_EQ(state.num_live_jobs(), 1);
}

TEST(JobIntakeTest, DeferredJobsWaitForRoomAndHoldOffDrained) {
  Topology topo = Mesh();
  ReplicaState state(&topo);
  // A script job owing 2,000 deliveries fills the backlog budget.
  MulticastJob big = MakeJob(0, 0, {1, 2}, MB(2000.0), MB(2.0), 0.0).value();
  ArrivalProcessOptions ap;
  ap.num_dcs = topo.num_dcs();
  ap.size_scale = 1e-6;
  ap.first_job_id = 1;
  ArrivalProcess arrivals(ap);
  const SimTime t = arrivals.NextArrivalTime();
  AdmissionOptions admission;
  admission.enabled = true;
  admission.policy = AdmissionPolicy::kDefer;
  admission.max_backlog_deliveries = 1000;
  JobIntake intake;
  intake.ConfigureAdmission(admission);
  intake.SetArrivalProcess(&arrivals, t + 1e-3);  // Exactly one arrival.
  ASSERT_TRUE(intake.Submit(big, topo.num_dcs()).ok());

  EXPECT_TRUE(intake.AdmitDue(t, state, nullptr));  // The script job only.
  EXPECT_EQ(intake.admission().stats().deferred, 1);
  EXPECT_EQ(state.num_live_jobs(), 1);
  EXPECT_FALSE(intake.Drained());                    // One job waits deferred.
  EXPECT_FALSE(intake.AdmitDue(t, state, nullptr));  // Still no room.

  // Deliver the big job: the deferred job fits and is admitted on re-offer.
  for (int64_t b = 0; b < big.num_blocks(); ++b) {
    for (DcId dc : big.dest_dcs) {
      ASSERT_TRUE(state.NoteDelivery(0, b, state.Holders(0, b)[0],
                                     state.AssignedServer(0, b, dc)).ok());
    }
  }
  EXPECT_TRUE(intake.AdmitDue(t, state, nullptr));
  EXPECT_EQ(state.num_live_jobs(), 2);
  EXPECT_TRUE(intake.Drained());
}

}  // namespace
}  // namespace bds

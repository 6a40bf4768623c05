// CompletionLedger: the in-flight table, crediting (whole blocks only,
// checksum-verified, never twice), buffered status reports to the view,
// retirement, the cycle ring and digest, and the assembled report.

#include "src/control/completion_ledger.h"

#include <gtest/gtest.h>

#include "src/common/digest.h"
#include "src/topology/builders.h"

namespace bds {
namespace {

constexpr JobId kJob = 0;

struct Fixture {
  Topology topo = BuildFullMesh(2, 1, Gbps(1.0), MBps(20.0), MBps(20.0)).value();
  ReplicaState state{&topo};
  FaultInjector fault{1};
  CompletionLedger ledger{&topo, &state, &fault};

  Fixture() {
    // 4 blocks from DC 0's only server to DC 1's, arriving at t = 1.
    EXPECT_TRUE(state.AddJob(MakeJob(kJob, 0, {1}, MB(8.0), MB(2.0), 1.0).value()).ok());
  }

  // Opens a transfer of `blocks` and closes it again, as a completion does.
  CtrlTransfer Launch(std::vector<int64_t> blocks) {
    CtrlTransfer t;
    t.assignment.job = kJob;
    t.assignment.blocks = std::move(blocks);
    t.assignment.src_server = topo.ServersIn(0)[0];
    t.assignment.dst_server = topo.ServersIn(1)[0];
    t.dest_dc = 1;
    const int64_t tag = ledger.NextTag();
    ledger.Open(tag, t);
    EXPECT_EQ(ledger.in_flight().size(), t.assignment.blocks.size());
    std::optional<CtrlTransfer> closed = ledger.Close(tag);
    EXPECT_TRUE(closed.has_value());
    EXPECT_FALSE(ledger.Close(tag).has_value());
    return *closed;
  }
};

TEST(CompletionLedgerTest, CreditsWholeBlocksAndRecordsCompletionOnce) {
  Fixture f;
  f.ledger.BeginRun();
  f.ledger.BeginCycle();
  f.ledger.Credit(f.Launch({0, 1, 2, 3}), /*full_blocks=*/2, 5.0);
  EXPECT_TRUE(f.ledger.in_flight().empty());  // Partial blocks return to pending.
  EXPECT_EQ(f.state.total_credited(), 2);
  EXPECT_EQ(f.ledger.deliveries_this_cycle(), 1);

  // A redundant transfer credits nothing new and records no delivery.
  f.ledger.Credit(f.Launch({0, 1}), 2, 6.0);
  EXPECT_EQ(f.ledger.deliveries_this_cycle(), 1);

  f.ledger.Credit(f.Launch({2, 3}), 2, 9.0);
  EXPECT_TRUE(f.state.JobComplete(kJob));
  RunReport report = f.ledger.Report(/*sources_drained=*/true, StopReason::kDrained, 9.0);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.deliveries, 2);
  EXPECT_EQ(report.jobs_completed_total, 1);
  EXPECT_EQ(report.job_completion.at(kJob), 9.0);
  EXPECT_EQ(report.job_durations.samples(), std::vector<double>{8.0});  // Since arrival.
  EXPECT_NE(report.completion_digest, Digest{}.h);
  EXPECT_EQ(report.server_completion,
            (std::vector<std::pair<ServerId, SimTime>>{{f.topo.ServersIn(1)[0], 9.0}}));
  EXPECT_EQ(report.dc_completion.at(1), 9.0);
  EXPECT_EQ(report.completion_time, 9.0);
}

TEST(CompletionLedgerTest, CorruptedBlocksStayPending) {
  Fixture f;
  DataPlaneFaultOptions data;
  data.corruption_prob = 1.0;
  ASSERT_TRUE(f.fault.SetDataPlaneFaults(data).ok());
  f.ledger.BeginCycle();
  f.ledger.Credit(f.Launch({0, 1}), 2, 5.0);
  EXPECT_EQ(f.state.total_credited(), 0);
  EXPECT_EQ(f.ledger.deliveries_this_cycle(), 0);
  EXPECT_EQ(f.fault.stats().blocks_corrupted, 2);
}

TEST(CompletionLedgerTest, ViewLearnsDeliveriesOnlyFromFlushedReports) {
  Fixture f;
  ReplicaState view(&f.topo);
  ASSERT_TRUE(view.AddJob(*f.state.FindJob(kJob)).ok());
  f.ledger.AttachView(&view);
  f.ledger.Credit(f.Launch({0}), 1, 5.0);
  f.ledger.CreditFallback(kJob, 1, f.topo.ServersIn(0)[0], f.topo.ServersIn(1)[0], 5.0);
  EXPECT_EQ(view.total_credited(), 0);
  f.ledger.FlushReports();
  EXPECT_EQ(view.total_credited(), 2);

  // Reports to a failed server die with it.
  f.ledger.Credit(f.Launch({2}), 1, 6.0);
  f.ledger.DropReportsTo(f.topo.ServersIn(1)[0]);
  f.ledger.FlushReports();
  EXPECT_EQ(view.total_credited(), 2);
}

TEST(CompletionLedgerTest, RetiresCompletedJobsOnlyWhenConfigured) {
  Fixture f;
  f.ledger.Credit(f.Launch({0, 1, 2, 3}), 4, 5.0);
  f.ledger.RetireCompleted(5.0);
  EXPECT_EQ(f.state.retired_jobs(), 0);

  Fixture g;
  g.ledger.ConfigureRetirement(/*retire_completed=*/true, /*max_cycle_stats=*/0);
  g.ledger.Credit(g.Launch({0, 1, 2, 3}), 4, 5.0);
  g.ledger.RetireCompleted(5.0);
  EXPECT_EQ(g.state.retired_jobs(), 1);
  RunReport report = g.ledger.Report(true, StopReason::kDrained, 5.0);
  EXPECT_TRUE(report.job_completion.empty());  // Retired jobs leave the map...
  EXPECT_EQ(report.jobs_completed_total, 1);   // ...but stay counted.
  EXPECT_EQ(report.retired_jobs, 1);
}

TEST(CompletionLedgerTest, CycleRingIsCappedButTheDigestCoversEveryCycle) {
  Fixture capped;
  Fixture full;
  capped.ledger.ConfigureRetirement(false, /*max_cycle_stats=*/4);
  for (Fixture* f : {&capped, &full}) {
    f->ledger.BeginRun();
    for (int64_t c = 0; c < 7; ++c) {
      CycleStats stats;
      stats.cycle = c;
      stats.start_time = static_cast<double>(c);
      f->ledger.CloseCycle(stats, /*live_flows=*/c);
    }
  }
  RunReport a = capped.ledger.Report(false, StopReason::kDeadline, 7.0);
  RunReport b = full.ledger.Report(false, StopReason::kDeadline, 7.0);
  ASSERT_EQ(a.cycles.size(), 4u);  // Trimmed to 4 once it passed 4 + 4/2.
  EXPECT_EQ(a.cycles.front().cycle, 3);
  EXPECT_EQ(b.cycles.size(), 7u);
  EXPECT_EQ(a.total_cycles, 7);
  EXPECT_EQ(a.cycles_digest, b.cycles_digest);
  EXPECT_EQ(a.peak_live_flows, 6);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_FALSE(a.completed);
  EXPECT_EQ(a.completion_time, 7.0);

  // The ring belongs to the run reported: the next run starts empty.
  capped.ledger.BeginRun();
  EXPECT_TRUE(capped.ledger.Report(false, StopReason::kDeadline, 7.0).cycles.empty());
}

TEST(CompletionLedgerTest, OvershootIsTheWorstSeenThisRun) {
  Fixture f;
  f.ledger.BeginRun();
  EXPECT_FALSE(f.ledger.Report(false, StopReason::kDeadline, 0.0).max_link_overshoot.has_value());
  f.ledger.NoteOvershoot(-0.5);
  f.ledger.NoteOvershoot(-0.25);
  f.ledger.NoteOvershoot(-0.75);
  EXPECT_EQ(f.ledger.Report(false, StopReason::kDeadline, 0.0).max_link_overshoot, -0.25);
  f.ledger.BeginRun();
  EXPECT_FALSE(f.ledger.Report(false, StopReason::kDeadline, 0.0).max_link_overshoot.has_value());
}

}  // namespace
}  // namespace bds

// Seeded, deterministic fault injection for the whole BDS stack (§5.3).
//
// The injector owns three orthogonal fault surfaces:
//
//  * Link faults — a validated timeline of per-link capacity factors: hard
//    down (factor 0), degradation (0 < factor < 1), and flapping (a periodic
//    down/up square wave expanded into plain events at schedule time). The
//    controller drains due events every cycle, applies them to the
//    simulator, and kills transfers crossing dead links.
//  * Control-plane faults — per-agent-DC status reports that are lost (the
//    controller then schedules against a stale replica view until the next
//    report lands) and per-agent decision pushes that are dropped (the agent
//    retries next cycle; after `push_retry_cycles` consecutive losses it
//    escalates out-of-band and the push is forced through, §5.3).
//  * Data-plane corruption — a per-block probability that a delivered block
//    fails checksum verification and is not credited, re-entering
//    rarest-first scheduling.
//
// Every probabilistic draw comes from one seeded Rng and is skipped entirely
// when its probability is zero, so a fault-free injector leaves the host
// system's random streams untouched: seed → byte-identical run, with or
// without faults enabled.

#ifndef BDS_SRC_FAULT_FAULT_INJECTOR_H_
#define BDS_SRC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/topology/topology.h"

namespace bds {

// One point on a link's capacity timeline: at time `at`, the link's usable
// capacity becomes `factor` times its nominal capacity. Later events on the
// same link override earlier ones.
struct LinkFaultEvent {
  SimTime at = 0.0;
  LinkId link = kInvalidLink;
  double factor = 1.0;  // 0 = hard down, 1 = healthy.
};

struct ControlPlaneFaultOptions {
  // Probability (per agent DC, per cycle) that the DC's status report is
  // lost; the controller keeps scheduling against its last known view.
  double report_loss_prob = 0.0;
  // After this many consecutive lost reports an agent reconciles
  // out-of-band (TCP retransmit / next ZooKeeper session), so staleness is
  // bounded even at loss probability 1.
  int report_timeout_cycles = 5;
  // Probability (per destination agent, per cycle) that the decision push
  // to that agent is dropped; its transfers simply do not start this cycle
  // and the blocks are rescheduled.
  double push_drop_prob = 0.0;
  // Consecutive dropped pushes before the agent escalates (§5.3) and the
  // decision is forced through out-of-band.
  int push_retry_cycles = 3;
};

struct DataPlaneFaultOptions {
  // Probability that a delivered block fails checksum verification at the
  // destination and is not credited.
  double corruption_prob = 0.0;
};

// Counters across all fault surfaces; folded into RunReport.
struct FaultStats {
  int64_t link_events = 0;       // Link fault events applied.
  int64_t flows_killed = 0;      // Transfers killed by a hard link-down.
  int64_t reports_lost = 0;      // Agent status reports dropped.
  int64_t reports_forced = 0;    // Reports forced through after timeout.
  int64_t pushes_dropped = 0;    // Decision pushes dropped.
  int64_t pushes_escalated = 0;  // Pushes forced through after retries.
  int64_t blocks_corrupted = 0;  // Blocks failing checksum verification.
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 1) : rng_(seed) {}

  // --- Schedule construction (validated; call before Run). ---

  // Link is unusable during [from, to); capacity restores at `to`.
  Status AddLinkDown(const Topology& topo, LinkId link, SimTime from, SimTime to);

  // Link runs at `factor` (in (0, 1)) of nominal capacity during [from, to).
  Status AddLinkDegradation(const Topology& topo, LinkId link, SimTime from, SimTime to,
                            double factor);

  // Link flaps during [from, to): down for `duty` of every `period` seconds,
  // up for the rest; fully restored at `to`.
  Status AddLinkFlapping(const Topology& topo, LinkId link, SimTime from, SimTime to,
                         SimTime period, double duty = 0.5);

  Status SetControlPlaneFaults(const ControlPlaneFaultOptions& options);
  Status SetDataPlaneFaults(const DataPlaneFaultOptions& options);

  const ControlPlaneFaultOptions& control_plane() const { return control_; }
  const DataPlaneFaultOptions& data_plane() const { return data_; }

  // True when stale/lossy status reports are enabled — the controller then
  // maintains a separate view ReplicaState.
  bool stale_reports_enabled() const { return control_.report_loss_prob > 0.0; }

  // --- Runtime (driven by the controller each cycle). ---

  // Pops every event with at <= now, in (time, insertion) order.
  std::vector<LinkFaultEvent> TakeLinkEventsUpTo(SimTime now);

  // Draws whether the status report from `dc` is lost this cycle, honouring
  // the report timeout; never consumes randomness when the probability is 0.
  bool DrawReportLost(DcId dc);

  // Draws whether the decision push to agent `server` is dropped this
  // cycle, honouring the retry-escalation bound; a push that goes through
  // resets the agent's count of consecutive drops.
  bool DrawPushDropped(ServerId server);

  // Draws whether one delivered block is corrupted.
  bool DrawBlockCorrupted();

  const FaultStats& stats() const { return stats_; }
  FaultStats& mutable_stats() { return stats_; }

  // Scheduled events not yet consumed — a wedge detector must not stop a
  // run that a pending link recovery could still unwedge.
  size_t remaining_link_events() const { return timeline_.size() - next_event_; }

  // Whether probabilistic control-plane faults are on; they can mask
  // progress for a few cycles, so wedge detection defers to the deadline.
  bool control_plane_active() const {
    return control_.report_loss_prob > 0.0 || control_.push_drop_prob > 0.0;
  }

 private:
  Status ValidateLink(const Topology& topo, LinkId link, SimTime from, SimTime to) const;
  void PushEvent(SimTime at, LinkId link, double factor);

  Rng rng_;
  ControlPlaneFaultOptions control_;
  DataPlaneFaultOptions data_;
  FaultStats stats_;

  struct OrderedEvent {
    LinkFaultEvent event;
    int64_t seq = 0;  // Tie-break so equal-time events apply in schedule order.
  };
  std::vector<OrderedEvent> timeline_;
  int64_t next_seq_ = 0;
  size_t next_event_ = 0;
  bool sorted_ = true;

  std::unordered_map<DcId, int> report_misses_;
  std::unordered_map<ServerId, int> push_misses_;
};

}  // namespace bds

#endif  // BDS_SRC_FAULT_FAULT_INJECTOR_H_

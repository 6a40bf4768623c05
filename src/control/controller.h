// The BDS controller: the cycle loop of Fig 8 driving the whole system.
//
// Every Delta-T the controller (1) reads agent/network state, (2) runs the
// decoupled scheduling + routing algorithm, (3) pushes rate-pinned transfer
// decisions to agents, which the simulator executes. In-flight transfers are
// never interrupted by recomputation (non-blocking update, §5.1); their
// deliveries are excluded from rescheduling and their rates from the
// residual capacity handed to the LP.
//
// Fault tolerance (§5.3): server failures remove the agent's replicas and
// cancel its flows; when every controller replica is down, agents fall back
// to the decentralized engine until a master returns.
//
// Injected faults (src/fault): the controller drains the FaultInjector's
// link timeline every cycle (hard-down links kill crossing transfers, which
// are cancelled-and-credited and re-planned over surviving paths), schedules
// against a *view* ReplicaState that lags ground truth while agent status
// reports are lost, drops decision pushes per agent until the agent's
// retry/escalation forces them through, and verifies a per-block checksum on
// delivery — corrupted blocks are not credited and re-enter rarest-first.
// All faults are seeded and deterministic: one seed, one byte-identical run.

#ifndef BDS_SRC_CONTROL_CONTROLLER_H_
#define BDS_SRC_CONTROL_CONTROLLER_H_

#include <memory>
#include <vector>

#include "src/baselines/decentralized_engine.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/control/completion_ledger.h"
#include "src/control/event_script.h"
#include "src/control/job_intake.h"
#include "src/control/monitors.h"
#include "src/control/overload.h"
#include "src/fault/fault_injector.h"
#include "src/scheduler/bandwidth_separator.h"
#include "src/scheduler/controller_algorithm.h"
#include "src/simulator/network_simulator.h"
#include "src/telemetry/timeseries.h"
#include "src/topology/routing.h"
#include "src/topology/topology.h"
#include "src/workload/background_traffic.h"

namespace bds {

struct ControllerOptions {
  ControllerAlgorithmOptions algorithm;
  BandwidthSeparator::Options separation;
  uint64_t latency_seed = 7;  // Control-plane message delays (AgentMonitor).
  DecentralizedEngine::Options fallback;
  ControllerReplicaSet::Options replication;
  DcId controller_dc = 0;
  // An in-flight transfer expected to need more than this many further
  // cycles (or starved to ~zero rate) is cancelled and re-planned; fully
  // delivered blocks are credited first. This is the per-cycle decision
  // refresh of §5.1 — without it a transfer the LP once allocated a tiny
  // rate could linger forever while its blocks stay locked. Generous by
  // default so healthy long transfers are left alone.
  double restall_cycles = 20.0;
  // Charge the feedback-loop delay against the cycle: transfers start only
  // after status collection + algorithm execution + decision push. This is
  // what makes very short update cycles counter-productive (Fig 12c's knee
  // at ~3 s). Off by default so laptop-scale runs aren't dominated by it.
  bool model_decision_latency = false;
  // Check hard invariants every cycle (link rates within faulted capacity)
  // and record the worst violation in the report. Costs O(flows + links) per
  // cycle, so off by default; the chaos soak turns it on.
  bool validate_invariants = false;
  uint64_t seed = 1;
};

class BdsController {
 public:
  BdsController(const Topology* topo, const WanRoutingTable* routing, ControllerOptions options);

  Status SubmitJob(const MulticastJob& job) { return intake_.Submit(job, topo_->num_dcs()); }
  // Admission control and open-loop arrivals (long-running service mode).
  JobIntake* mutable_intake() { return &intake_; }
  const JobIntake& intake() const { return intake_; }

  // The failure script, applied as simulated time passes.
  EventScript* mutable_script() { return &script_; }
  const EventScript& script() const { return script_; }

  // --- Long-running service mode. Configure before Run(). ---
  // Cycle-deadline watchdog + degradation ladder, priced from this
  // controller's algorithm options.
  void ConfigureOverload(const OverloadOptions& options) {
    watchdog_ = CycleWatchdog(options, options_.algorithm);
  }
  // Bounded memory: retire completed jobs from the replica state and cap
  // the per-cycle stats kept in the report (`max_cycle_stats`, 0 keeps all).
  void ConfigureRetirement(bool retire_completed, int64_t max_cycle_stats) {
    ledger_.ConfigureRetirement(retire_completed, max_cycle_stats);
  }

  // SLO time-series sampler (src/telemetry/timeseries.h): fixed simulated-Δt
  // samples of service health plus the burn-rate alert detector. Pure
  // observation — fingerprints are bit-identical with it on or off. The
  // tracked links are the 4 highest-capacity WAN links
  // (deterministic tie-break by link id).
  Status ConfigureTimeseries(const telemetry::TimeseriesOptions& options);

  const CycleWatchdog& watchdog() const { return watchdog_; }
  // Null until ConfigureTimeseries enables it.
  const telemetry::SloTimeseries* timeseries() const { return timeseries_.get(); }

  // Injected link / control-plane / data-plane faults; configure before
  // Run() (see src/fault/fault_injector.h).
  FaultInjector* mutable_fault_injector() { return &fault_; }

  // Attaches latency-sensitive traffic (not owned).
  void SetBackgroundTraffic(BackgroundTrafficModel* model) {
    network_monitor_.SetTrafficModel(model);
  }

  // Runs cycles until all submitted jobs complete or `deadline` passes.
  StatusOr<RunReport> Run(SimTime deadline = kTimeInfinity);

  NetworkSimulator* mutable_simulator() { return &sim_; }
  const NetworkSimulator& simulator() const { return sim_; }
  const ReplicaState& state() const { return state_; }

 private:
  void ApplyFailures(SimTime now);
  // Drains due link-fault events: updates the simulator's capacity factors
  // and kills transfers crossing hard-down links (cancel-and-credit for
  // centralized ones, requeue for fallback downloads).
  void ApplyLinkFaults(SimTime now);
  // Returns the simulated time consumed before decisions took effect
  // (> 0 only with model_decision_latency).
  SimTime RunCentralizedCycle(SimTime now, CycleStats& stats);
  // Cancels the transfer behind `tag`, credits whole delivered blocks, and
  // returns the rest to pending. `reason` is a static string for the flight
  // recorder ("stalled", "link_down", ...), which also journals the fault
  // hit when a hard-down link killed the transfer.
  void CancelAndCredit(int64_t tag, const char* reason, LinkId down_link = kInvalidLink);
  void OnFlowComplete(const FlowRecord& record);

  const Topology* topo_;
  const WanRoutingTable* routing_;
  ControllerOptions options_;

  NetworkSimulator sim_;
  ReplicaState state_;
  FaultInjector fault_;
  // The controller's possibly-stale view of the replica state, fed by agent
  // status reports. Ground truth lives in state_; the two coincide (and
  // view_ stays null) unless report loss is enabled.
  std::unique_ptr<ReplicaState> view_;
  ControllerAlgorithm algorithm_;
  BandwidthSeparator separator_;
  AgentMonitor agent_monitor_;
  NetworkMonitor network_monitor_;
  DecentralizedEngine fallback_;
  CycleWatchdog watchdog_;

  EventScript script_;
  JobIntake intake_;
  CompletionLedger ledger_;

  std::unique_ptr<telemetry::SloTimeseries> timeseries_;
  // The sampler's input, kept across cycles: its per-phase CPU accumulates
  // (wall-derived; excluded from every fingerprint, like RunReport::telemetry).
  telemetry::SloSampleInput ts_input_;
};

}  // namespace bds

#endif  // BDS_SRC_CONTROL_CONTROLLER_H_

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

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/baselines/decentralized_engine.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/control/monitors.h"
#include "src/control/overload.h"
#include "src/control/replication.h"
#include "src/fault/fault_injector.h"
#include "src/scheduler/admission.h"
#include "src/scheduler/bandwidth_separator.h"
#include "src/scheduler/controller_algorithm.h"
#include "src/scheduler/replica_state.h"
#include "src/simulator/network_simulator.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/timeseries.h"
#include "src/topology/routing.h"
#include "src/topology/topology.h"
#include "src/workload/arrival_process.h"
#include "src/workload/background_traffic.h"
#include "src/workload/job.h"

namespace bds {

struct ControllerOptions {
  ControllerAlgorithmOptions algorithm;
  BandwidthSeparator::Options separation;
  LatencyModel::Options latency;
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

struct CycleStats {
  int64_t cycle = 0;
  SimTime start_time = 0.0;
  bool controller_up = true;
  int64_t scheduled_blocks = 0;
  int64_t merged_subtasks = 0;
  int64_t transfers_started = 0;
  int64_t blocks_delivered = 0;  // Deliveries completing within this cycle.
  double scheduling_seconds = 0.0;
  double routing_seconds = 0.0;
  double feedback_delay = 0.0;
  // Degradation rung this cycle ran at (DegradationRung as int) and the cost
  // the watchdog charged it. Both are simulation-determined: the cost comes
  // from the deterministic cost model.
  int rung = 0;
  double modeled_cost_seconds = 0.0;
};

// Why Run() returned — a bare `completed` bool conflated "drained every job"
// with "gave up": a wedged run and a deadline-bounded steady-state run both
// reported completed=false.
enum class StopReason {
  kDrained,   // Every arrived job completed and no more arrivals are due.
  kDeadline,  // Simulated deadline passed with work still outstanding.
  kWedged,    // Nothing pending can ever complete (e.g. every holder failed).
  kAborted,   // Hard cycle cap hit — a wedge the detector could not prove.
};

const char* StopReasonName(StopReason reason);

struct RunReport {
  bool completed = false;
  StopReason stop_reason = StopReason::kDeadline;
  SimTime completion_time = 0.0;
  int64_t deliveries = 0;
  // Per-cycle stats. In bounded-memory service mode only the most recent
  // cycles are kept (ConfigureRetirement); total_cycles and cycles_digest
  // always cover the whole run, so the fingerprint does not depend on how
  // much history was retained.
  std::vector<CycleStats> cycles;
  int64_t total_cycles = 0;
  uint64_t cycles_digest = 0;
  std::unordered_map<JobId, SimTime> job_completion;
  // Per destination server: when it finished receiving its shard.
  std::vector<std::pair<ServerId, SimTime>> server_completion;
  std::unordered_map<DcId, SimTime> dc_completion;
  std::unordered_map<ServerId, ReplicaState::ServerOriginStats> origin_stats;
  EmpiricalDistribution control_delays;   // One-way messages (Fig 11b).
  EmpiricalDistribution feedback_delays;  // Full loop (Fig 11c).
  FaultStats faults;                      // Injected-fault counters.
  // Worst (bulk_rate - usable_capacity) / nominal_capacity observed at any
  // cycle boundary; <= ~0 means no link ever exceeded its (possibly faulted)
  // capacity. Engaged only when ControllerOptions::validate_invariants was
  // on — nullopt means "not measured", which previous versions conflated
  // with a -1.0 sentinel that consumers could mistake for "no overshoot".
  std::optional<double> max_link_overshoot;
  // What the run changed in the telemetry registry (counters, gauges,
  // latency histograms) between Run() entry and exit. Empty unless
  // telemetry::Enabled() was set. Excluded from Fingerprint(): metrics carry
  // wall-clock-derived values and must never affect determinism checks.
  telemetry::MetricsSnapshot telemetry;

  // Steady-state service accounting. jobs_completed_total and
  // completion_digest survive retirement (job_completion only holds
  // unretired jobs in bounded-memory mode). job_durations holds every
  // completed job's arrival-to-completion time; the percentile fields are
  // precomputed from it (excluded from Fingerprint, like control_delays —
  // the digest already covers every sample).
  int64_t jobs_completed_total = 0;
  uint64_t completion_digest = 0;
  int64_t retired_jobs = 0;
  int64_t retired_blocks = 0;
  EmpiricalDistribution job_durations;
  double completion_p50 = 0.0;
  double completion_p95 = 0.0;
  double completion_p99 = 0.0;
  // High-water marks sampled at cycle boundaries — the bounded-memory soak
  // asserts these plateau while retired counts keep growing.
  int64_t peak_live_pending = 0;
  int64_t peak_live_jobs = 0;
  int64_t peak_live_flows = 0;

  std::vector<double> ServerCompletionMinutes() const;

  // Order-independent digest of every simulation-determined field (wall-clock
  // timings excluded). Two runs with the same seed and inputs must produce
  // equal fingerprints — the determinism guarantee the chaos soak checks.
  uint64_t Fingerprint() const;
};

class BdsController {
 public:
  BdsController(const Topology* topo, const WanRoutingTable* routing, ControllerOptions options);

  // Jobs may arrive at any simulated time (trace replay); arrival_time in
  // the past means "now".
  Status SubmitJob(const MulticastJob& job);

  // --- Failure script (applied as simulated time passes). ---
  // Rejects malformed scripts: unknown servers, failing an already-failed
  // server, recovering a server that was never failed (as of the scheduled
  // time), and inverted outage windows.
  Status ScheduleServerFailure(ServerId server, SimTime at);
  Status ScheduleServerRecovery(ServerId server, SimTime at);
  Status ScheduleControllerOutage(SimTime from, SimTime to);
  // Individual controller-replica fail/recover events (the replica set
  // handles master election and failover delay; a headless window behaves
  // like a controller outage). Events apply in scheduled order.
  Status ScheduleReplicaFailure(int replica, SimTime at);
  Status ScheduleReplicaRecovery(int replica, SimTime at);

  // --- Long-running service mode. Configure before Run(). ---
  // Cycle-deadline watchdog + degradation ladder, priced from this
  // controller's algorithm options.
  void ConfigureOverload(const OverloadOptions& options);
  // Admission control over open-loop arrivals (script-submitted jobs are
  // always accepted — they model operator-initiated work).
  void ConfigureAdmission(const AdmissionOptions& options);
  // Bounded memory: retire completed jobs from the replica state and cap
  // the per-cycle stats kept in the report (`max_cycle_stats`, 0 keeps all).
  void ConfigureRetirement(bool retire_completed, int64_t max_cycle_stats);
  // Pulls jobs from `arrivals` (not owned; must outlive Run) as simulated
  // time passes, until NextArrivalTime() reaches `stop_time`.
  void SetArrivalProcess(ArrivalProcess* arrivals, SimTime stop_time);

  // SLO time-series sampler (src/telemetry/timeseries.h): fixed simulated-Δt
  // samples of service health plus the burn-rate alert detector. Pure
  // observation — fingerprints are bit-identical with it on or off. The
  // tracked links are the max_tracked_links highest-capacity WAN links
  // (deterministic tie-break by link id).
  Status ConfigureTimeseries(const telemetry::TimeseriesOptions& options);

  const CycleWatchdog& watchdog() const { return watchdog_; }
  const AdmissionController& admission() const { return admission_; }
  // Null until ConfigureTimeseries enables it.
  const telemetry::SloTimeseries* timeseries() const { return timeseries_.get(); }

  // Injected link / control-plane / data-plane faults; configure before
  // Run() (see src/fault/fault_injector.h).
  FaultInjector* mutable_fault_injector() { return &fault_; }
  const FaultInjector& fault_injector() const { return fault_; }

  // Attaches latency-sensitive traffic (not owned).
  void SetBackgroundTraffic(BackgroundTrafficModel* model);

  // Runs cycles until all submitted jobs complete or `deadline` passes.
  StatusOr<RunReport> Run(SimTime deadline = kTimeInfinity);

  NetworkSimulator* mutable_simulator() { return &sim_; }
  const NetworkSimulator& simulator() const { return sim_; }
  const ReplicaState& state() const { return state_; }

 private:
  struct CtrlTransfer {
    TransferAssignment assignment;
    DcId dest_dc = kInvalidDc;
    FlowId flow = kInvalidFlow;
  };
  struct ServerFailure {
    ServerId server;
    SimTime at;
    bool recovery = false;
  };
  struct Outage {
    SimTime from;
    SimTime to;
  };
  struct ReplicaEvent {
    int replica;
    SimTime at;
    bool recovery;
  };

  void RegisterArrivals(SimTime now);
  // Admission-gated pull from the open-loop arrival process plus the
  // deferred-job FIFO; returns whether any job was registered.
  bool RegisterOpenArrivals(SimTime now);
  void AdmitJobNow(const MulticastJob& job);
  void ApplyReplicaEvents(SimTime now);
  // Drops jobs recorded complete from the replica state(s); jobs a server
  // failure re-owed stay queued until they complete again.
  void RetireCompleted();
  int64_t JobDeliveries(const MulticastJob& job) const;
  void ApplyFailures(SimTime now);
  // Drains due link-fault events: updates the simulator's capacity factors
  // and kills transfers crossing hard-down links (cancel-and-credit for
  // centralized ones, requeue for fallback downloads).
  void ApplyLinkFaults(SimTime now);
  // Replays the server failure/recovery script up to `at` to decide whether
  // a new event for `server` is consistent.
  Status ValidateFailureEvent(ServerId server, SimTime at, bool recovery) const;
  bool ControllerUp(SimTime now);
  // Flushes agent status reports into the controller's view state; reports
  // from DCs whose report was lost this cycle stay buffered (stale view).
  void CollectAgentReports();
  // Records a ground-truth delivery for the next status report of the
  // destination's DC (no-op unless stale reports are enabled).
  void MirrorDelivery(JobId job, int64_t block, ServerId src, ServerId dst);
  // Returns the simulated time consumed before decisions took effect
  // (> 0 only with model_decision_latency).
  SimTime RunCentralizedCycle(SimTime now, CycleStats& stats);
  // Cancels the transfer behind `tag`, credits whole delivered blocks, and
  // returns the rest to pending. `reason` is a static string for the flight
  // recorder ("stalled", "link_down", ...).
  void CancelAndCredit(int64_t tag, const char* reason);
  void OnFlowComplete(const FlowRecord& record);
  void RecordDelivery(JobId job, ServerId dest_server, SimTime now);

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
  struct PendingReport {
    JobId job;
    int64_t block;
    ServerId src;
    ServerId dst;
  };
  std::unordered_map<DcId, std::vector<PendingReport>> unreported_;
  ControllerAlgorithm algorithm_;
  BandwidthSeparator separator_;
  AgentMonitor agent_monitor_;
  NetworkMonitor network_monitor_;
  ControllerReplicaSet replicas_;
  DecentralizedEngine fallback_;

  std::vector<MulticastJob> arriving_jobs_;  // Sorted by arrival time.
  size_t next_arrival_ = 0;
  int64_t jobs_submitted_ = 0;

  std::vector<ServerFailure> failures_;  // Sorted by time.
  size_t next_failure_ = 0;
  std::vector<Outage> outages_;
  bool fallback_was_active_ = false;

  std::unordered_map<int64_t, CtrlTransfer> transfers_;  // By flow tag.
  int64_t next_tag_ = 0;
  DeliveryKeySet in_flight_;

  // Completion bookkeeping.
  std::unordered_map<ServerId, SimTime> server_last_delivery_;
  std::unordered_map<JobId, SimTime> job_completion_;
  int64_t deliveries_ = 0;
  int64_t deliveries_this_cycle_ = 0;

  std::vector<DcId> active_agent_dcs_;  // DCs participating in current jobs.

  // --- Long-running service mode. ---
  CycleWatchdog watchdog_;
  AdmissionController admission_;
  std::unique_ptr<telemetry::SloTimeseries> timeseries_;
  std::vector<LinkId> timeseries_links_;  // Tracked WAN links, fixed order.
  // Cumulative per-phase CPU handed to the sampler (wall-derived; excluded
  // from every fingerprint, like RunReport::telemetry).
  double ts_select_cpu_ = 0.0;
  double ts_solve_cpu_ = 0.0;
  double ts_merge_cpu_ = 0.0;
  ArrivalProcess* open_arrivals_ = nullptr;  // Not owned.
  SimTime arrivals_stop_ = 0.0;
  std::deque<MulticastJob> deferred_jobs_;
  int64_t deferred_deliveries_ = 0;

  std::vector<ReplicaEvent> replica_events_;  // Sorted by time.
  size_t next_replica_event_ = 0;

  bool retire_completed_ = false;
  int64_t max_cycle_stats_ = 0;          // 0 = keep every CycleStats.
  std::vector<JobId> retirable_;         // Completed, awaiting retirement.
  EmpiricalDistribution completion_durations_;
  uint64_t completion_digest_ = 0x9E3779B97F4A7C15ULL;
  uint64_t cycles_digest_ = 0x9E3779B97F4A7C15ULL;
  int64_t total_cycles_ = 0;
  int64_t jobs_completed_total_ = 0;
  int64_t peak_live_pending_ = 0;
  int64_t peak_live_jobs_ = 0;
  int64_t peak_live_flows_ = 0;
};

}  // namespace bds

#endif  // BDS_SRC_CONTROL_CONTROLLER_H_

#include "src/control/controller.h"

#include <algorithm>

#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"

namespace bds {
namespace {
// WAN links the SLO sampler tracks for utilization.
constexpr size_t kMaxTrackedLinks = 4;
}  // namespace

BdsController::BdsController(const Topology* topo, const WanRoutingTable* routing,
                             ControllerOptions options)
    : topo_(topo),
      routing_(routing),
      options_(options),
      sim_(topo),
      state_(topo),
      fault_(options.seed ^ 0xFA017ULL),
      algorithm_(topo, routing, options.algorithm),
      separator_(topo, options.separation),
      agent_monitor_(topo, options.controller_dc, options.latency_seed),
      network_monitor_(topo),
      fallback_(topo, routing, &sim_, &state_,
                [&options] {
                  DecentralizedEngine::Options o = options.fallback;
                  o.seed = options.seed ^ 0xFA11BACC;
                  return o;
                }()),
      watchdog_(OverloadOptions{}, options.algorithm),
      script_(topo->num_servers(), options.replication),
      ledger_(topo, &state_, &fault_) {
  BDS_CHECK(topo != nullptr && routing != nullptr);
  sim_.SetCompletionCallback([this](const FlowRecord& r) { OnFlowComplete(r); });
  fallback_.SetDeliveryCallback([this](JobId job, int64_t block, ServerId src, ServerId dst) {
    ledger_.CreditFallback(job, block, src, dst, sim_.now());
  });
  fallback_.SetCorruptionHook(
      [this](JobId, int64_t) { return fault_.DrawBlockCorrupted(); });
  fallback_.Deactivate();
}

Status BdsController::ConfigureTimeseries(const telemetry::TimeseriesOptions& options) {
  BDS_RETURN_IF_ERROR(telemetry::ValidateTimeseriesOptions(options));
  if (!options.enabled) {
    timeseries_.reset();
    ledger_.AttachTimeseries(nullptr);
    return Status::Ok();
  }
  timeseries_ = std::make_unique<telemetry::SloTimeseries>(options);
  // Track the highest-capacity WAN links (tie-break by id so the selection
  // is deterministic), reported in ascending-id order.
  std::vector<std::pair<Rate, LinkId>> wan;
  for (LinkId l = 0; l < topo_->num_links(); ++l) {
    if (topo_->link(l).type == LinkType::kWan) {
      wan.emplace_back(-topo_->link(l).capacity, l);
    }
  }
  std::sort(wan.begin(), wan.end());
  std::vector<LinkId> tracked;
  for (size_t i = 0; i < wan.size() && i < kMaxTrackedLinks; ++i) {
    tracked.push_back(wan[i].second);
  }
  std::sort(tracked.begin(), tracked.end());
  timeseries_->SetTrackedLinks(tracked);
  ledger_.AttachTimeseries(timeseries_.get());
  ts_input_ = {};
  return Status::Ok();
}

void BdsController::ApplyFailures(SimTime now) {
  while (std::optional<EventScript::Event> e = script_.TakeServerEvent(now)) {
    const ServerId server = e->target;
    if (e->recovery) {
      state_.RestoreServer(server);
      if (view_ != nullptr) {
        view_->RestoreServer(server);
      }
      if (fallback_.active()) {
        fallback_.Activate();  // Pick up the restored server's owed shards.
      }
      continue;
    }
    state_.RemoveServer(server);
    if (view_ != nullptr) {
      // Failures are detected by the controller's own heartbeats, not agent
      // status reports, so the view mirrors them instantly.
      view_->RemoveServer(server);
      ledger_.DropReportsTo(server);
    }
    fallback_.HandleServerFailure(server);
    // Cancel centralized transfers touching the failed server; their
    // deliveries go back to pending via the replica state.
    telemetry::FlightRecorder& fr = telemetry::FlightRecorder::Global();
    for (int64_t tag : ledger_.TagsWhere([server](const CtrlTransfer& t) {
           return t.assignment.src_server == server || t.assignment.dst_server == server;
         })) {
      CtrlTransfer t = *ledger_.Close(tag);
      if (fr.active()) {
        fr.FaultHit(t.assignment.job, now, "server_failure", static_cast<int64_t>(server));
        fr.Cancel(t.assignment.job, now, "server_failure", /*credited_blocks=*/0);
      }
      (void)sim_.CancelFlow(t.flow);
      ledger_.Credit(t, /*full_blocks=*/0, now);
    }
  }
}

void BdsController::ApplyLinkFaults(SimTime now) {
  for (const LinkFaultEvent& e : fault_.TakeLinkEventsUpTo(now)) {
    Status s = sim_.SetLinkFaultFactor(e.link, e.factor);
    BDS_CHECK_MSG(s.ok(), s.ToString().c_str());
    telemetry::TraceInstant("fault.link", "fault",
                            {{"link", static_cast<double>(e.link)}, {"factor", e.factor}});
    if (e.factor > 0.0) {
      continue;  // Degradations and recoveries just change capacity; the
                 // allocator throttles (or refills) crossing flows in place.
    }
    // Hard down: every transfer crossing the link dies now. Centralized
    // transfers are cancelled-and-credited so fully-arrived blocks survive;
    // their remaining blocks return to pending and the next cycle re-plans
    // them over surviving paths. Fallback downloads requeue immediately.
    std::vector<int64_t> doomed = ledger_.TagsWhere([&](const CtrlTransfer& t) {
      auto flow = sim_.FindFlow(t.flow);
      return flow && flow->Crosses(e.link);
    });
    for (int64_t tag : doomed) {
      CancelAndCredit(tag, "link_down", e.link);
    }
    fault_.mutable_stats().flows_killed +=
        static_cast<int64_t>(doomed.size()) + fallback_.HandleLinkFault(e.link);
    BDS_TELEMETRY_COUNT("fault.flows_killed", static_cast<int64_t>(doomed.size()));
  }
}

void BdsController::CancelAndCredit(int64_t tag, const char* reason, LinkId down_link) {
  std::optional<CtrlTransfer> t = ledger_.Close(tag);
  if (!t) {
    return;
  }
  telemetry::FlightRecorder& fr = telemetry::FlightRecorder::Global();
  if (fr.active() && down_link != kInvalidLink) {
    fr.FaultHit(t->assignment.job, sim_.now(), "link_down", static_cast<int64_t>(down_link));
  }
  BDS_TELEMETRY_COUNT("controller.transfers_cancelled", 1);
  auto delivered = sim_.CancelFlow(t->flow);
  Bytes delivered_bytes = delivered.ok() ? *delivered : 0.0;
  const size_t n = t->assignment.blocks.size();
  Bytes per_block = t->assignment.bytes / static_cast<double>(n);
  int64_t full_blocks =
      per_block > 0.0 ? static_cast<int64_t>(delivered_bytes / per_block + kFluidEpsilon) : 0;
  full_blocks = std::min(full_blocks, static_cast<int64_t>(n));
  if (fr.active()) {
    fr.Cancel(t->assignment.job, sim_.now(), reason, full_blocks);
  }
  ledger_.Credit(*t, static_cast<size_t>(full_blocks), sim_.now());
}

SimTime BdsController::RunCentralizedCycle(SimTime now, CycleStats& stats) {
  stats.rung = static_cast<int>(watchdog_.rung());

  // Flush agent status reports (some may be lost, leaving the view stale).
  ledger_.FlushReports();

  // Last rung of the degradation ladder: skip scheduling and routing
  // entirely and let the previous cycle's decisions keep running (they are
  // rate-pinned, so extending them costs nothing). Only the base cost is
  // charged, which is what lets the ladder recover.
  if (watchdog_.enabled() && watchdog_.rung() == DegradationRung::kExtendDecisions) {
    const double cost = watchdog_.ModelCost(0, 0, 0);
    stats.modeled_cost_seconds = cost;
    algorithm_.SetDegradationRung(watchdog_.Observe(stats.cycle, cost));
    BDS_TELEMETRY_COUNT("controller.cycles_extended", 1);
    return 0.0;
  }

  // Decision refresh: re-plan transfers that will not finish in a
  // reasonable number of cycles at their current rate.
  const double horizon = options_.restall_cycles * options_.algorithm.cycle_length;
  std::vector<int64_t> stalled;
  for (const auto& [tag, t] : ledger_.transfers()) {
    auto flow = sim_.FindFlow(t.flow);
    if (!flow) {
      stalled.push_back(tag);  // Flow vanished; clean up bookkeeping.
      continue;
    }
    if (flow->current_rate <= kFluidEpsilon ||
        flow->RemainingAt(sim_.now()) / flow->current_rate > horizon) {
      stalled.push_back(tag);
    }
  }
  for (int64_t tag : stalled) {
    CancelAndCredit(tag, "stalled");
  }

  // (1) + (3): agent states and network statistics.
  std::vector<Rate> online = network_monitor_.OnlineRates(now);
  // Also steer the simulator's background load so the data plane and the
  // monitor agree on what the latency-sensitive traffic consumes.
  for (LinkId l = 0; l < topo_->num_links(); ++l) {
    if (topo_->link(l).type == LinkType::kWan) {
      (void)sim_.SetBackgroundRate(l, online[static_cast<size_t>(l)]);
    }
  }
  // Residual capacities honour injected link faults: a degraded or dead
  // link's usable capacity shrinks by its fault factor before the safety
  // threshold applies, so the LP routes around it.
  std::vector<Rate> residual = separator_.ResidualCapacities(online, sim_.link_fault_factors());
  // Non-blocking update: in-flight transfers keep their bandwidth, but only
  // for the fraction of the coming cycle they will still be running (agents
  // report per-flow progress, so the controller knows the remaining time).
  for (const auto& [tag, t] : ledger_.transfers()) {
    auto flow = sim_.FindFlow(t.flow);
    double fraction = 1.0;
    if (flow && flow->current_rate > 0.0) {
      double remaining_seconds = flow->RemainingAt(sim_.now()) / flow->current_rate;
      fraction = std::min(1.0, remaining_seconds / options_.algorithm.cycle_length);
    }
    for (LinkId l : t.assignment.path.links) {
      Rate& r = residual[static_cast<size_t>(l)];
      // WAN links subtract the full in-flight rate: the safety threshold and
      // the bulk cap are hard guarantees (§5.2), so overlapping a straggler
      // with a full new allocation must never push a WAN link over. Server
      // NICs only lose the fraction of the cycle the straggler still needs.
      double f = topo_->link(l).type == LinkType::kWan ? 1.0 : fraction;
      r = std::max(0.0, r - t.assignment.rate * f);
    }
  }

  // (4): the decision algorithm — runs on the controller's possibly-stale
  // view when report loss is enabled. A stale view only ever has MORE
  // pending deliveries than ground truth (reports lag, submissions do not),
  // so the worst case is a redundant transfer that NoteDelivery ignores.
  const ReplicaState& sched_state = view_ != nullptr ? *view_ : state_;
  const int64_t pending_before = sched_state.num_pending();
  CycleDecision decision =
      algorithm_.Decide(stats.cycle, sched_state, residual, ledger_.in_flight());
  BDS_TELEMETRY_COUNT("controller.blocks_scheduled", decision.scheduled_blocks);
  BDS_TELEMETRY_COUNT("controller.merged_subtasks", decision.merged_subtasks);
  stats.scheduled_blocks = decision.scheduled_blocks;
  stats.merged_subtasks = decision.merged_subtasks;
  stats.scheduling_seconds = decision.scheduling_seconds;
  stats.routing_seconds = decision.routing_seconds;
  if (timeseries_ != nullptr) {
    // Cumulative wall-CPU per stage; the sampler diffs these itself.
    ts_input_.select_cpu_seconds += decision.select_cpu_seconds;
    ts_input_.solve_cpu_seconds += decision.solve_cpu_seconds;
    ts_input_.merge_cpu_seconds += decision.merge_cpu_seconds;
  }
  if (!intake_.active_dcs().empty()) {
    stats.feedback_delay =
        agent_monitor_.SampleFeedbackLoop(intake_.active_dcs(), decision.total_seconds());
  }
  // Cycle-deadline watchdog: price the cycle with the deterministic cost
  // model and convert any overrun into decision staleness — the decisions
  // reach agents late.
  double cycle_cost = 0.0;
  if (watchdog_.enabled()) {
    cycle_cost = watchdog_.ModelCost(pending_before, decision.scheduled_blocks,
                                     decision.merged_subtasks);
    stats.modeled_cost_seconds = cycle_cost;
  }

  // The decisions only reach the agents after the feedback loop completes
  // (and, under overload, after the overrunning computation finishes);
  // in-flight transfers keep running meanwhile (non-blocking update).
  SimTime lead = 0.0;
  if (options_.model_decision_latency && stats.feedback_delay > 0.0) {
    lead = std::min(stats.feedback_delay,
                    kMaxDecisionLagFraction * options_.algorithm.cycle_length);
  }
  if (watchdog_.enabled()) {
    lead = std::max(lead, watchdog_.StalenessFor(cycle_cost));
  }
  if (lead > 0.0) {
    Status s = sim_.AdvanceBy(lead);
    BDS_CHECK_MSG(s.ok(), s.ToString().c_str());
  }

  // (5): push decisions — agents start rate-limited transfers. A dropped
  // push loses every assignment to that destination agent this cycle (one
  // draw per agent, consistent across its assignments); the blocks stay
  // pending and are rescheduled until the agent's retry/backoff escalates
  // out-of-band (§5.3) and the push is forced through.
  std::vector<std::pair<ServerId, bool>> push_plan;
  auto push_dropped = [&](ServerId dst) {
    for (const auto& [s, drop] : push_plan) {
      if (s == dst) {
        return drop;
      }
    }
    bool drop = fault_.DrawPushDropped(dst);
    push_plan.emplace_back(dst, drop);
    return drop;
  };
  // The cycle's flow starts only mark links dirty; the next time advance
  // runs one reallocation pass over the union of dirty components.
  telemetry::FlightRecorder& fr = telemetry::FlightRecorder::Global();
  const bool fr_on = fr.active();
  const char* rung_name = DegradationRungName(static_cast<DegradationRung>(stats.rung));
  // Launched transfers whose planned rate cannot carry their bytes within
  // one cycle: the stragglers whose overlap with the next cycle's pins the
  // simulator later scales down. Telemetry only.
  int64_t planned_past_cycle = 0;
  for (TransferAssignment& a : decision.transfers) {
    if (push_dropped(a.dst_server)) {
      continue;
    }
    DcId dest_dc = topo_->server(a.dst_server).dc;
    int64_t tag = ledger_.NextTag();
    auto flow = sim_.StartFlow(a.path.links, a.bytes, a.rate, tag, /*tag2=*/0);
    if (!flow.ok()) {
      continue;  // Skip unstartable transfers; they stay pending.
    }
    if (fr_on) {
      fr.Schedule(a.job, sim_.now(), stats.cycle, rung_name, a.src_server, a.dst_server, a.rate,
                  static_cast<int64_t>(a.blocks.size()));
    }
    planned_past_cycle += a.bytes > a.rate * options_.algorithm.cycle_length;
    ledger_.Open(tag, CtrlTransfer{std::move(a), dest_dc, *flow});
    ++stats.transfers_started;
  }
  BDS_TELEMETRY_COUNT("controller.transfers_started", stats.transfers_started);
  BDS_TELEMETRY_COUNT("controller.transfers_planned_past_cycle", planned_past_cycle);
  if (watchdog_.enabled()) {
    // Fold the cycle into the ladder and set the rung the NEXT cycle runs at.
    algorithm_.SetDegradationRung(watchdog_.Observe(stats.cycle, cycle_cost));
  }
  return lead;
}

void BdsController::OnFlowComplete(const FlowRecord& record) {
  if (fallback_.OnFlowComplete(record)) {
    return;  // Decentralized-engine flow; its callback updated our stats.
  }
  if (record.tag2 != 0) {
    return;  // Not ours (e.g. a client-injected flow).
  }
  if (std::optional<CtrlTransfer> t = ledger_.Close(record.tag)) {
    ledger_.Credit(*t, t->assignment.blocks.size(), sim_.now());
  }
}

StatusOr<RunReport> BdsController::Run(SimTime deadline) {
  const SimTime dt = options_.algorithm.cycle_length;
  int64_t cycle = 0;
  // Hard stop: generous bound so that a wedged configuration cannot spin.
  const int64_t max_cycles = 10'000'000;

  // Scope the report's telemetry to this run: everything before Run() (other
  // runs in the same process, registration warm-up) is subtracted out.
  telemetry::MetricsSnapshot telemetry_at_entry;
  if (telemetry::Enabled()) {
    telemetry_at_entry = telemetry::MetricsRegistry::Global().Snapshot();
  }

  // Flow-rate changepoints for the flight recorder: the simulator calls the
  // observer from the single rate-assignment site, pre-filtered by relative
  // change, so the recorder only sees material reallocations of centralized
  // transfers. Observing never mutates simulation state.
  if (telemetry::FlightRecorder::Global().active()) {
    sim_.SetRateObserver(
        [this](int64_t tag, int64_t tag2, SimTime t, Rate old_rate, Rate new_rate) {
          if (!telemetry::FlightRecorder::Global().WantsRateEvents()) {
            return false;  // Budget spent: the simulator drops the observer.
          }
          if (tag2 == 0) {  // Fallback/background flows are not journaled transfers.
            auto it = ledger_.transfers().find(tag);
            if (it != ledger_.transfers().end()) {
              telemetry::FlightRecorder::Global().RateChange(it->second.assignment.job, t,
                                                             old_rate, new_rate);
            }
          }
          return true;
        },
        telemetry::FlightRecorder::Global().options().min_relative_rate_change);
  }

  if (fault_.stale_reports_enabled() && view_ == nullptr) {
    // Jobs submitted before Run() register inside the loop, so a view
    // created here sees every job. The view starts identical to ground
    // truth and lags only in deliveries whose reports were lost.
    view_ = std::make_unique<ReplicaState>(topo_);
    ledger_.AttachView(view_.get());
  }
  ledger_.BeginRun();

  StopReason stop = StopReason::kAborted;  // Overwritten by every break below.
  while (cycle < max_cycles) {
    SimTime now = sim_.now();
    if (now >= deadline - kFluidEpsilon) {
      stop = StopReason::kDeadline;
      break;
    }
    BDS_TIMED_SCOPE("controller.cycle");
    if (intake_.AdmitDue(now, state_, view_.get()) && fallback_.active()) {
      fallback_.Activate();  // Refresh queues with the new job's deliveries.
    }
    ApplyFailures(now);
    script_.ApplyReplicaEvents(now);
    ApplyLinkFaults(now);
    const bool had_backlog = state_.num_pending() > 0;

    CycleStats stats;
    stats.cycle = cycle;
    stats.start_time = now;
    stats.controller_up = script_.ControllerUp(now);
    ledger_.BeginCycle();

    SimTime lead = 0.0;
    if (stats.controller_up) {
      fallback_.Deactivate();
      lead = RunCentralizedCycle(now, stats);
    } else if (!fallback_.active()) {
      fallback_.Activate();
    } else {
      fallback_.Tick();  // Retry stalled receivers each cycle.
    }

    BDS_RETURN_IF_ERROR(sim_.AdvanceBy(std::max(0.0, std::min(dt, deadline - now) - lead)));
    stats.blocks_delivered = ledger_.deliveries_this_cycle();
    intake_.ObserveCycle(stats.blocks_delivered, had_backlog);
    if (timeseries_ != nullptr) {
      telemetry::SloSampleInput& in = ts_input_;
      in.active_flows = static_cast<int64_t>(sim_.num_active_flows());
      in.pending_blocks = state_.num_pending();
      in.rung = stats.rung;
      const AdmissionStats& as = intake_.admission().stats();
      in.offered = as.offered;
      in.accepted = as.accepted;
      in.rejected = as.rejected;
      in.deferred = as.deferred;
      in.link_utilization.clear();
      for (LinkId l : timeseries_->tracked_links()) {
        in.link_utilization.push_back(sim_.LinkUtilization(l));
      }
      timeseries_->SampleUpTo(sim_.now(), in);
    }
    if (options_.validate_invariants) {
      ledger_.NoteOvershoot(sim_.MaxCapacityViolation());
    }
    ledger_.RetireCompleted(sim_.now());
    ledger_.CloseCycle(stats, static_cast<int64_t>(sim_.num_active_flows()));
    ++cycle;

    const bool drained = intake_.Drained();
    if (drained && state_.AllComplete()) {
      stop = StopReason::kDrained;
      break;
    }
    // Catch wedged runs: nothing pending can ever complete (e.g. every
    // holder failed). Stop rather than spin to the deadline. A pending link
    // recovery or probabilistic control-plane fault can still unwedge a
    // quiet cycle, so the detector defers to the deadline while either is
    // in play. A degraded cycle is never proof of wedge either: rungs above
    // kNormal deliberately restrict routing (routes[0] only, shed
    // candidates, or no decision at all), so a quiet cycle there may just
    // mean the restricted plan found nothing — wait for the ladder to
    // recover to kNormal before declaring the run dead.
    if (drained && !state_.AllComplete() && sim_.num_active_flows() == 0 &&
        stats.controller_up && stats.transfers_started == 0 && stats.blocks_delivered == 0 &&
        watchdog_.rung() == DegradationRung::kNormal && script_.Exhausted(now) &&
        fault_.remaining_link_events() == 0 && !fault_.control_plane_active()) {
      stop = StopReason::kWedged;
      break;
    }
  }

  RunReport report = ledger_.Report(intake_.Drained(), stop, sim_.now());
  report.control_delays = agent_monitor_.one_way_delays();
  report.feedback_delays = agent_monitor_.feedback_delays();
  if (telemetry::Enabled()) {
    report.telemetry =
        telemetry::MetricsRegistry::Global().Snapshot().DiffSince(telemetry_at_entry);
  }
  return report;
}

}  // namespace bds

#include "src/core/service.h"

#include <utility>

namespace bds {

// Source holders a receiver on the decentralized fallback can see.
constexpr int kFallbackVisibility = 3;

ControllerOptions ToControllerOptions(const BdsOptions& options) {
  ControllerOptions c;
  c.algorithm.cycle_length = options.cycle_length;
  c.algorithm.fptas_epsilon = options.fptas_epsilon;
  c.algorithm.merge_subtasks = options.merge_subtasks;
  c.algorithm.use_exact_lp = options.use_exact_lp;
  c.algorithm.num_threads = options.num_threads;
  c.algorithm.num_shards = options.num_shards;
  c.separation.safety_threshold = options.safety_threshold;
  c.separation.bulk_rate_cap = options.bulk_rate_cap;
  c.fallback.visibility = kFallbackVisibility;
  c.replication.num_replicas = options.controller_replicas;
  c.controller_dc = options.controller_dc;
  c.model_decision_latency = options.model_decision_latency;
  c.validate_invariants = options.validate_invariants;
  c.seed = options.seed;
  c.latency_seed = options.seed ^ 0x17AB;
  return c;
}

BdsService::BdsService(Topology topo, WanRoutingTable routing, BdsOptions options)
    : topo_(std::move(topo)), routing_(std::move(routing)), options_(options) {
  controller_ = std::make_unique<BdsController>(&topo_, &routing_, ToControllerOptions(options_));
}

StatusOr<std::unique_ptr<BdsService>> BdsService::Create(Topology topo, BdsOptions options) {
  if (topo.num_dcs() < 2) {
    return InvalidArgumentError("BdsService: need at least 2 DCs");
  }
  if (options.controller_dc < 0 || options.controller_dc >= topo.num_dcs()) {
    return InvalidArgumentError("BdsService: controller DC out of range");
  }
  if (options.block_size <= 0.0 || options.cycle_length <= 0.0) {
    return InvalidArgumentError("BdsService: block size and cycle length must be positive");
  }
  auto routing = WanRoutingTable::Build(topo, ControllerAlgorithmOptions{}.max_wan_routes);
  if (!routing.ok()) {
    return routing.status();
  }
  return std::unique_ptr<BdsService>(
      new BdsService(std::move(topo), std::move(routing).value(), options));
}

StatusOr<JobId> BdsService::CreateJob(DcId source_dc, std::vector<DcId> dest_dcs, Bytes bytes,
                                      SimTime start_time, std::string app_type) {
  auto job = MakeJob(next_job_id_, source_dc, std::move(dest_dcs), bytes, options_.block_size,
                     start_time, std::move(app_type));
  if (!job.ok()) {
    return job.status();
  }
  BDS_RETURN_IF_ERROR(controller_->SubmitJob(*job));
  return next_job_id_++;
}

Status BdsService::SubmitJob(const MulticastJob& job) {
  Status s = controller_->SubmitJob(job);
  if (s.ok()) {
    next_job_id_ = std::max(next_job_id_, job.id + 1);
  }
  return s;
}

Status BdsService::InjectServerFailure(ServerId server, SimTime at) {
  return controller_->mutable_script()->ScheduleServerFailure(server, at);
}

Status BdsService::InjectServerRecovery(ServerId server, SimTime at) {
  return controller_->mutable_script()->ScheduleServerRecovery(server, at);
}

Status BdsService::InjectControllerOutage(SimTime from, SimTime to) {
  return controller_->mutable_script()->ScheduleControllerOutage(from, to);
}

StatusOr<ChaosPlan> BdsService::InstallChaos(uint64_t seed, const ChaosOptions& options) {
  auto plan = InstallRandomChaos(topo_, seed, options, controller_->mutable_fault_injector());
  if (!plan.ok()) {
    return plan.status();
  }
  EventScript* script = controller_->mutable_script();
  for (const auto& [from, to] : plan->controller_outages) {
    BDS_RETURN_IF_ERROR(script->ScheduleControllerOutage(from, to));
  }
  for (const ChaosPlan::ReplicaFailureEvent& e : plan->replica_failures) {
    BDS_RETURN_IF_ERROR(script->ScheduleReplicaFailure(e.replica, e.fail_at));
    BDS_RETURN_IF_ERROR(script->ScheduleReplicaRecovery(e.replica, e.recover_at));
  }
  return plan;
}

void BdsService::EnableBackgroundTraffic(BackgroundTrafficModel::Options options) {
  background_ = std::make_unique<BackgroundTrafficModel>(&topo_, options);
  controller_->SetBackgroundTraffic(background_.get());
}

StatusOr<RunReport> BdsService::Run(SimTime deadline) { return controller_->Run(deadline); }

StatusOr<SteadyStateReport> BdsService::RunSteadyState(const SteadyStateOptions& options) {
  BDS_RETURN_IF_ERROR(ValidateSteadyStateOptions(options));

  ArrivalProcessOptions ap = options.arrivals;
  ap.num_dcs = topo_.num_dcs();
  ap.block_size = options_.block_size;
  ap.first_job_id = next_job_id_;
  BDS_RETURN_IF_ERROR(ValidateArrivalOptions(ap));
  ArrivalProcess arrivals(std::move(ap));

  controller_->ConfigureOverload(options.overload);
  controller_->mutable_intake()->ConfigureAdmission(options.admission);
  controller_->ConfigureRetirement(options.retire_completed, options.max_cycle_stats);
  BDS_RETURN_IF_ERROR(controller_->ConfigureTimeseries(options.timeseries));
  controller_->mutable_intake()->SetArrivalProcess(&arrivals, options.duration);

  const SimTime deadline = options.duration + (options.drain ? options.drain_limit : 0.0);
  auto run = controller_->Run(deadline);
  // The arrival process is stack-local: detach it before any return so the
  // controller never holds a dangling pointer.
  controller_->mutable_intake()->SetArrivalProcess(nullptr, 0.0);
  next_job_id_ = std::max(next_job_id_, arrivals.next_job_id());
  if (!run.ok()) {
    return run.status();
  }

  SteadyStateReport report;
  report.run = std::move(run).value();
  report.jobs_generated = arrivals.generated();
  const AdmissionController& admission = controller_->intake().admission();
  report.admission = admission.stats();
  report.estimated_service_rate = admission.estimated_service_rate();
  report.jobs_completed = report.run.jobs_completed_total;
  report.completion_p50_minutes = ToMinutes(report.run.completion_p50);
  report.completion_p95_minutes = ToMinutes(report.run.completion_p95);
  report.completion_p99_minutes = ToMinutes(report.run.completion_p99);
  if (!report.run.job_durations.empty()) {
    report.completion_mean_minutes = ToMinutes(report.run.job_durations.Mean());
    report.completion_max_minutes = ToMinutes(report.run.job_durations.Max());
  }
  const CycleWatchdog& watchdog = controller_->watchdog();
  report.cycle_overruns = watchdog.overrun_cycles();
  report.worst_overrun_seconds = watchdog.worst_overrun_seconds();
  report.rung_cycles = watchdog.rung_cycles();
  report.transitions = watchdog.transitions();
  report.transition_digest = watchdog.TransitionDigest();
  report.live_jobs_at_end = controller_->state().num_live_jobs();
  report.live_pending_at_end = controller_->state().num_pending();
  if (const telemetry::SloTimeseries* ts = controller_->timeseries(); ts != nullptr) {
    report.timeseries_samples = ts->samples();
    report.burn_fast_at_end = ts->burn_fast();
    report.burn_slow_at_end = ts->burn_slow();
    report.slo_alerts = ts->alerts();
    if (!options.timeseries.jsonl_path.empty()) {
      BDS_RETURN_IF_ERROR(ts->WriteJsonl(options.timeseries.jsonl_path));
    }
  }
  return report;
}

StatusOr<MulticastRunResult> BdsStrategy::Run(const Topology& topo,
                                              const WanRoutingTable& routing,
                                              const MulticastJob& job, uint64_t seed,
                                              SimTime deadline) {
  BdsOptions opt = options_;
  opt.seed = seed;
  ControllerOptions copt = ToControllerOptions(opt);
  BdsController controller(&topo, &routing, copt);
  BDS_RETURN_IF_ERROR(controller.SubmitJob(job));
  auto report = controller.Run(deadline);
  if (!report.ok()) {
    return report.status();
  }
  MulticastRunResult result;
  result.completed = report->completed;
  result.completion_time = report->completion_time;
  result.server_completion = report->server_completion;
  for (const auto& [dc, t] : report->dc_completion) {
    result.dc_completion.emplace(dc, t);
  }
  result.deliveries = report->deliveries;
  return result;
}

}  // namespace bds

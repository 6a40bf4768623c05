#include "src/scheduler/admission.h"

namespace bds {
namespace {
// EWMA weight of the newest cycle's delivered count.
constexpr double kServiceRateAlpha = 0.2;
}  // namespace

void AdmissionController::ObserveCycle(int64_t blocks_delivered, bool had_backlog) {
  if (!had_backlog) {
    return;
  }
  const double x = static_cast<double>(blocks_delivered);
  if (observed_cycles_ == 0) {
    service_rate_ = x;
  } else {
    service_rate_ += kServiceRateAlpha * (x - service_rate_);
  }
  ++observed_cycles_;
}

bool AdmissionController::OverBudget(int64_t job_deliveries, int64_t backlog_deliveries) const {
  const int64_t after = backlog_deliveries + job_deliveries;
  if (options_.max_backlog_deliveries > 0 && after > options_.max_backlog_deliveries) {
    last_reason_ = "max_backlog_deliveries";
    return true;
  }
  if (observed_cycles_ < options_.bootstrap_cycles) {
    last_reason_ = "bootstrap_optimism";
    return false;  // No reliable rate estimate yet; stay optimistic.
  }
  if (service_rate_ <= 0.0) {
    // A formed estimate of zero means backlogged cycles are draining
    // nothing; any addition is unservable.
    last_reason_ = "zero_service_rate";
    return true;
  }
  if (static_cast<double>(after) / service_rate_ > options_.max_backlog_cycles) {
    last_reason_ = "max_backlog_cycles";
    return true;
  }
  last_reason_ = "under_budget";
  return false;
}

AdmissionDecision AdmissionController::Admit(int64_t job_deliveries,
                                             int64_t backlog_deliveries) {
  ++stats_.offered;
  if (!options_.enabled) {
    last_reason_ = "disabled";
    ++stats_.accepted;
    return AdmissionDecision::kAccept;
  }
  if (!OverBudget(job_deliveries, backlog_deliveries)) {
    ++stats_.accepted;
    return AdmissionDecision::kAccept;
  }
  if (options_.policy == AdmissionPolicy::kDefer) {
    return AdmissionDecision::kDefer;  // Caller queues it (or rejects on overflow).
  }
  ++stats_.rejected;
  return AdmissionDecision::kReject;
}

AdmissionDecision AdmissionController::ReofferDeferred(int64_t job_deliveries,
                                                       int64_t backlog_deliveries) const {
  if (!options_.enabled) {
    last_reason_ = "disabled";
    return AdmissionDecision::kAccept;
  }
  if (!OverBudget(job_deliveries, backlog_deliveries)) {
    return AdmissionDecision::kAccept;
  }
  return AdmissionDecision::kDefer;
}

}  // namespace bds

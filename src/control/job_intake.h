// Where jobs enter a run: the script of submitted jobs (replayed by arrival
// time), the open-loop arrival process of the long-running service mode,
// admission control over those arrivals, and the FIFO of deferred jobs.
// Script jobs are always accepted: they model operator-initiated work.

#ifndef BDS_SRC_CONTROL_JOB_INTAKE_H_
#define BDS_SRC_CONTROL_JOB_INTAKE_H_

#include <deque>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/scheduler/admission.h"
#include "src/scheduler/replica_state.h"
#include "src/workload/arrival_process.h"
#include "src/workload/job.h"

namespace bds {

class JobIntake {
 public:
  // Jobs may arrive at any simulated time (trace replay); arrival_time in
  // the past means "now".
  Status Submit(const MulticastJob& job, int num_dcs);

  // Pulls jobs from `arrivals` (not owned; must outlive the run) as
  // simulated time passes, until NextArrivalTime() reaches `stop_time`.
  void SetArrivalProcess(ArrivalProcess* arrivals, SimTime stop_time) {
    open_arrivals_ = arrivals;
    arrivals_stop_ = stop_time;
  }
  void ConfigureAdmission(const AdmissionOptions& options) {
    admission_ = AdmissionController(options);
  }

  // Admits every script job due by `now`, re-offers deferred jobs (FIFO),
  // then offers due open-loop arrivals to admission control. Returns whether
  // any job entered `state` and, when non-null, the controller's `view` (job
  // submission goes through the controller: only delivery reports lag).
  bool AdmitDue(SimTime now, ReplicaState& state, ReplicaState* view);

  // Feeds one finished cycle's drained deliveries to the admission estimate.
  void ObserveCycle(int64_t blocks_delivered, bool had_backlog) {
    admission_.ObserveCycle(blocks_delivered, had_backlog);
  }

  // Every job has arrived and been admitted or rejected: the script is
  // consumed, the arrival process has stopped, and nothing waits deferred.
  bool Drained() const {
    return next_script_ >= script_.size() && deferred_.empty() &&
           (open_arrivals_ == nullptr || open_arrivals_->NextArrivalTime() >= arrivals_stop_);
  }

  const AdmissionController& admission() const { return admission_; }
  // DCs taking part in admitted jobs, in first-seen order.
  const std::vector<DcId>& active_dcs() const { return active_dcs_; }

 private:
  void Admit(const MulticastJob& job, SimTime now, ReplicaState& state, ReplicaState* view);

  std::vector<MulticastJob> script_;  // Sorted by arrival time.
  size_t next_script_ = 0;

  ArrivalProcess* open_arrivals_ = nullptr;  // Not owned.
  SimTime arrivals_stop_ = 0.0;
  AdmissionController admission_;
  std::deque<MulticastJob> deferred_;
  int64_t deferred_deliveries_ = 0;

  std::vector<DcId> active_dcs_;
};

}  // namespace bds

#endif  // BDS_SRC_CONTROL_JOB_INTAKE_H_

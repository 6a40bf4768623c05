// Open-loop job arrivals for the long-running service mode.
//
// Instead of pre-materializing a batch (generate → drain → report), an
// ArrivalProcess draws an unbounded stream of multicast jobs whose *shapes*
// (transfer size, destination-DC count) follow the Fig-2-calibrated
// distributions of TraceGenerator and whose *timing* follows one of three
// arrival patterns:
//
//   kPoisson  homogeneous Poisson at `jobs_per_hour`.
//   kDiurnal  non-homogeneous Poisson, rate modulated by a daily sinusoid
//             (the inter-DC traffic shape of §2.1 / Fig 10).
//   kBursty   two-state on/off modulated Poisson: burst periods at
//             `burst_factor` x the base rate, quiet periods scaled so the
//             long-run mean stays `jobs_per_hour`.
//
// Non-homogeneous draws use thinning against the pattern's peak rate, so
// every pattern consumes randomness from one seeded Rng in arrival order —
// one seed, one byte-identical job stream, independent of who consumes it.

#ifndef BDS_SRC_WORKLOAD_ARRIVAL_PROCESS_H_
#define BDS_SRC_WORKLOAD_ARRIVAL_PROCESS_H_

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/workload/job.h"
#include "src/workload/trace_generator.h"

namespace bds {

enum class ArrivalPattern { kPoisson, kDiurnal, kBursty };

struct ArrivalProcessOptions {
  ArrivalPattern pattern = ArrivalPattern::kPoisson;
  double jobs_per_hour = 60.0;  // Long-run mean arrival rate.

  // kDiurnal: rate(t) = mean * (1 + amplitude * sin(2*pi*t / period)).
  double diurnal_amplitude = 0.5;
  SimTime diurnal_period = 86400.0;

  // kBursty: on-state rate is burst_factor * mean; the process spends
  // `burst_fraction` of time on. Off-state rate is derived so the long-run
  // mean stays `jobs_per_hour` (clamped at zero when burst_factor is large).
  double burst_factor = 4.0;
  double burst_fraction = 0.2;
  SimTime mean_burst_seconds = 600.0;

  // Job shape: sizes and destination counts follow TraceGenerator's Fig 2
  // anchors for a deployment of `num_dcs` DCs.
  int num_dcs = 0;  // Required: the deployment's DC count.
  Bytes block_size = MB(2.0);
  double size_scale = 1.0;  // Scales drawn sizes (laptop-scale runs).

  JobId first_job_id = 0;  // Ids are assigned sequentially from here.
  uint64_t seed = 2026;
};

Status ValidateArrivalOptions(const ArrivalProcessOptions& options);

class ArrivalProcess {
 public:
  // Requires ValidateArrivalOptions(options).ok(); checked fatally.
  explicit ArrivalProcess(ArrivalProcessOptions options);

  // Arrival time of the next job (monotone non-decreasing across Take()s).
  SimTime NextArrivalTime() const { return next_time_; }

  // Consumes and returns the next job; draws the one after.
  MulticastJob Take();

  int64_t generated() const { return generated_; }
  JobId next_job_id() const { return next_id_; }
  const ArrivalProcessOptions& options() const { return options_; }

 private:
  // Instantaneous rate (jobs/second) at simulated time t. For kBursty the
  // on/off state machine is advanced to t first (t must be non-decreasing).
  double RateAt(SimTime t);
  double PeakRate() const;
  void DrawNextArrival();

  ArrivalProcessOptions options_;
  TraceGenerator shape_;  // Size / destination-count sampler.
  Rng rng_;               // Arrival timing + source/destination draws.
  double base_rate_ = 0.0;  // Jobs per second.

  SimTime next_time_ = 0.0;
  JobId next_id_ = 0;
  int64_t generated_ = 0;

  // kBursty state machine.
  bool burst_on_ = false;
  SimTime burst_until_ = 0.0;
};

}  // namespace bds

#endif  // BDS_SRC_WORKLOAD_ARRIVAL_PROCESS_H_

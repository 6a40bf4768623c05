// Steady-state service-mode bench: sweeps the open-loop arrival rate across
// the overload knee and reports the service-level outcome at each load
// factor — admission counts, completion-time percentiles, watchdog overruns,
// and degradation-ladder occupancy.
//
// Below the knee (load 0.5x) admission stays idle and the ladder never
// engages; past it (1.5x, 2x) the backlog saturates at the admission bound,
// the stressed cycle-cost model pushes cycles over budget, and the ladder
// sheds work — the graceful-degradation story of the overload PR in one
// table.
//
//   bench_steady_state --json=BENCH_steady.json     # full sweep
//   bench_steady_state --smoke --json=out.json      # same points (cheap)
//
// Every number in the JSON is simulation-deterministic (fixed seeds, modeled
// cycle costs), so tools/check_bench_regression.py gates the committed
// baseline with tight tolerances rather than timing ratios.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/service.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/topology/builders.h"

namespace bds {
namespace {

// Arrival rate at which offered deliveries roughly match what the thin mesh
// drains (measured with the load-0.5/1.0 points: service sits near a dozen
// deliveries per 3 s cycle).
constexpr double kKneeJobsPerHour = 1200.0;
constexpr double kLoadFactors[] = {0.5, 1.0, 1.5, 2.0};
constexpr double kDurationHours = 2.0;

struct SweepPoint {
  double load_factor = 0.0;
  double jobs_per_hour = 0.0;
  int64_t generated = 0;
  int64_t accepted = 0;
  int64_t rejected = 0;
  int64_t completed = 0;
  double p50_minutes = 0.0;
  double p99_minutes = 0.0;
  int64_t overrun_cycles = 0;
  int max_rung = 0;  // Highest ladder rung with non-zero occupancy.
  int64_t transitions = 0;
  int64_t peak_live_pending = 0;
  int64_t retired_jobs = 0;
  uint64_t fingerprint = 0;
  const char* stop_reason = "";
};

SweepPoint RunPoint(double load_factor) {
  // Same laptop-scale overload rig as tests/steady_state_test.cc: thin WAN
  // pipes put the knee at a friendly arrival rate, and the stressed cost
  // model makes the admission-capped backlog price past the cycle budget.
  BdsOptions options;
  options.block_size = MB(2.0);
  options.cycle_length = 3.0;
  options.validate_invariants = true;
  options.seed = 7;
  Topology topo = BuildFullMesh(4, 1, MBps(1.0), MBps(4.0), MBps(4.0)).value();
  auto service = BdsService::Create(std::move(topo), options).value();

  SteadyStateOptions steady;
  steady.duration = kDurationHours * 3600.0;
  steady.drain = true;
  steady.drain_limit = Hours(1.0);
  // Poisson, not bursty: the sweep should map load factor cleanly onto the
  // long-run rate (a 4x burst would put even the half-load point past the
  // knee instantaneously; the soak test covers bursty arrivals).
  steady.arrivals.pattern = ArrivalPattern::kPoisson;
  steady.arrivals.jobs_per_hour = kKneeJobsPerHour * load_factor;
  steady.arrivals.size_scale = 2e-6;
  steady.arrivals.seed = 99;
  steady.admission.enabled = true;
  steady.admission.policy = AdmissionPolicy::kReject;
  steady.admission.max_backlog_cycles = 30.0;
  steady.admission.bootstrap_cycles = 8;
  steady.overload.enabled = true;
  steady.overload.cost.base_seconds = 1e-4;
  steady.overload.cost.per_pending_seconds = 1.2e-2;
  steady.overload.recover_cycles = 5;

  auto report = service->RunSteadyState(steady);
  BDS_CHECK_MSG(report.ok(), report.status().ToString().c_str());

  SweepPoint p;
  p.load_factor = load_factor;
  p.jobs_per_hour = steady.arrivals.jobs_per_hour;
  p.generated = report->jobs_generated;
  p.accepted = report->admission.accepted;
  p.rejected = report->admission.rejected;
  p.completed = report->jobs_completed;
  p.p50_minutes = report->completion_p50_minutes;
  p.p99_minutes = report->completion_p99_minutes;
  p.overrun_cycles = report->cycle_overruns;
  for (size_t rung = 0; rung < report->rung_cycles.size(); ++rung) {
    if (report->rung_cycles[rung] > 0) {
      p.max_rung = static_cast<int>(rung);
    }
  }
  p.transitions = static_cast<int64_t>(report->transitions.size());
  p.peak_live_pending = report->peak_live_pending;
  p.retired_jobs = report->retired_jobs;
  p.fingerprint = report->Fingerprint();
  p.stop_reason = StopReasonName(report->run.stop_reason);
  return p;
}

std::vector<SweepPoint> RunSweep() {
  bench::PrintHeader(
      "Steady-state service", "open-loop arrival sweep across the overload knee",
      "4-DC thin mesh, 2 h simulated per point, Poisson arrivals, stressed "
      "cycle-cost model; all columns simulation-deterministic");
  std::printf("%6s %9s %9s %9s %9s %9s %8s %8s %9s %5s %7s %9s\n", "load", "jobs/h",
              "generated", "accepted", "rejected", "completed", "p50 min", "p99 min",
              "overruns", "rung", "transit", "peak pend");
  std::vector<SweepPoint> points;
  for (double load : kLoadFactors) {
    SweepPoint p = RunPoint(load);
    std::printf("%6.2f %9.0f %9lld %9lld %9lld %9lld %8.2f %8.2f %9lld %5d %7lld %9lld\n",
                p.load_factor, p.jobs_per_hour, static_cast<long long>(p.generated),
                static_cast<long long>(p.accepted), static_cast<long long>(p.rejected),
                static_cast<long long>(p.completed), p.p50_minutes, p.p99_minutes,
                static_cast<long long>(p.overrun_cycles), p.max_rung,
                static_cast<long long>(p.transitions),
                static_cast<long long>(p.peak_live_pending));
    points.push_back(p);
  }
  return points;
}

void WriteSweepJson(const std::vector<SweepPoint>& points, bool smoke,
                    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  BDS_CHECK_MSG(f != nullptr, "cannot open --json output path");
  std::fprintf(f, "{\n  \"benchmark\": \"steady_state\",\n");
  std::fprintf(f, "  \"mode\": \"steady\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"telemetry_enabled\": %s,\n",
               bds::telemetry::Enabled() ? "true" : "false");
  std::fprintf(f, "  \"flight_recorder_enabled\": %s,\n",
               bds::telemetry::FlightRecorder::Global().active() ? "true" : "false");
  std::fprintf(f, "  \"points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::fprintf(
        f,
        "    {\"load_factor\": %.2f, \"jobs_per_hour\": %.1f, \"generated\": %lld, "
        "\"accepted\": %lld, \"rejected\": %lld, \"completed\": %lld, "
        "\"p50_minutes\": %.4f, \"p99_minutes\": %.4f, \"overrun_cycles\": %lld, "
        "\"max_rung\": %d, \"transitions\": %lld, \"peak_live_pending\": %lld, "
        "\"retired_jobs\": %lld, \"stop_reason\": \"%s\", "
        "\"fingerprint\": \"%016llx\"}%s\n",
        p.load_factor, p.jobs_per_hour, static_cast<long long>(p.generated),
        static_cast<long long>(p.accepted), static_cast<long long>(p.rejected),
        static_cast<long long>(p.completed), p.p50_minutes, p.p99_minutes,
        static_cast<long long>(p.overrun_cycles), p.max_rung,
        static_cast<long long>(p.transitions), static_cast<long long>(p.peak_live_pending),
        static_cast<long long>(p.retired_jobs), p.stop_reason,
        static_cast<unsigned long long>(p.fingerprint), i + 1 == points.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace bds

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--sweep-only") == 0) {
      // Accepted for regression-tool symmetry; the deterministic sweep is
      // the whole binary, so smoke and full run identical points.
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }
  std::vector<bds::SweepPoint> points = bds::RunSweep();
  if (!json_path.empty()) {
    bds::WriteSweepJson(points, smoke, json_path);
  }
  return 0;
}

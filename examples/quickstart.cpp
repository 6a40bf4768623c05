// Quickstart: replicate one bulk file from a source DC to three destination
// DCs over a small geo-distributed deployment, and print what happened.
//
//   ./quickstart [--dcs N] [--servers N] [--size-gb X] [--cycle S] [--verbose]
//               [--threads N] [--shards K]
//               [--duration S] [--arrival-rate JOBS_PER_HOUR]
//               [--trace-json PATH] [--summary-jsonl PATH]
//               [--flight-recorder PATH] [--timeseries-dt S] [--slo-json PATH]
//
// --threads and --shards exercise the fleet-scale controller (DESIGN.md
// "Sharded controller"); either may be raised without changing any decision.
//
// With --duration the one-shot job is replaced by the long-running service
// mode (DESIGN.md "Overload and graceful degradation"): open-loop arrivals
// at --arrival-rate jobs/hour for that many simulated seconds, with
// admission control, the cycle-deadline watchdog, and bounded-memory
// retirement, e.g.
//
//   ./quickstart --duration=7200 --arrival-rate=600
//
// With --trace-json the run is recorded and exported as Chrome trace_event
// JSON — open it in chrome://tracing or https://ui.perfetto.dev, or validate
// and summarise it with tools/trace_summary.py. --verbose also prints the
// run's metrics table after a traced run (--trace-json or --summary-jsonl).
//
// With --flight-recorder the per-transfer lifecycle journal (arrival,
// admission verdict, per-cycle schedule, rate changepoints, fault hits,
// completion) is written as bds-flight-v1 JSONL — explain one transfer with
// tools/bds_explain.py. With --timeseries-dt (steady-state mode only) the
// simulated-time SLO sampler runs at that cadence and --slo-json exports the
// bds-slo-v1 series for tools/slo_dashboard.py.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/core/bds.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"

int main(int argc, char** argv) {
  int dcs = 5;
  int servers = 4;
  double size_gb = 2.0;
  double cycle = 3.0;
  int threads = 1;
  int shards = 1;
  double duration = 0.0;
  double arrival_rate = 600.0;
  bool verbose = false;
  std::string trace_json;
  std::string summary_jsonl;
  std::string flight_recorder;
  double timeseries_dt = 0.0;
  std::string slo_json;

  bds::FlagParser flags;
  flags.AddInt("dcs", &dcs, "number of datacenters (>= 2)");
  flags.AddInt("servers", &servers, "servers per datacenter");
  flags.AddDouble("size-gb", &size_gb, "bulk data size in GB");
  flags.AddDouble("cycle", &cycle, "controller update cycle in seconds");
  flags.AddInt("threads", &threads, "controller worker threads");
  flags.AddInt("shards", &shards, "controller selection-queue shards");
  flags.AddDouble("duration", &duration,
                  "steady-state mode: simulated seconds of open-loop arrivals (0 = one-shot)");
  flags.AddDouble("arrival-rate", &arrival_rate, "steady-state mode: jobs per hour");
  flags.AddBool("verbose", &verbose, "print the metrics table after a traced run");
  flags.AddString("trace-json", &trace_json, "write a Chrome trace_event JSON file here");
  flags.AddString("summary-jsonl", &summary_jsonl, "write a JSONL metrics summary here");
  flags.AddString("flight-recorder", &flight_recorder,
                  "write the per-transfer flight-recorder JSONL here");
  flags.AddDouble("timeseries-dt", &timeseries_dt,
                  "steady-state mode: SLO sampler cadence in simulated seconds (0 = off)");
  flags.AddString("slo-json", &slo_json, "steady-state mode: write the SLO time-series here");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  const bool tracing = !trace_json.empty() || !summary_jsonl.empty();
  if (tracing) {
    // Turns on the metrics registry too; the run's counters and latency
    // histograms land on RunReport::telemetry.
    bds::telemetry::TraceRecorder::Global().Start();
  }
  if (!flight_recorder.empty()) {
    bds::telemetry::FlightRecorder::Global().Start();
  }

  // 1. Describe the infrastructure. BuildGeoTopology gives a Baidu-like
  //    deployment: ring backbone + extra WAN links, heterogeneous capacities.
  bds::GeoTopologyOptions topo_options;
  topo_options.num_dcs = dcs;
  topo_options.servers_per_dc = servers;
  topo_options.server_up = bds::MBps(40.0);
  topo_options.server_down = bds::MBps(40.0);
  auto topo = bds::BuildGeoTopology(topo_options);
  if (!topo.ok()) {
    std::fprintf(stderr, "topology: %s\n", topo.status().ToString().c_str());
    return 1;
  }
  std::printf("Topology: %s\n", topo->Summary().c_str());

  // 2. Bring up BDS.
  bds::BdsOptions options;
  options.cycle_length = cycle;
  options.num_threads = std::max(1, threads);
  options.num_shards = std::max(1, shards);
  auto service = bds::BdsService::Create(std::move(topo).value(), options);
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n", service.status().ToString().c_str());
    return 1;
  }

  // Writes the requested trace/summary artifacts; shared by both run modes.
  auto finish_tracing = [&](const bds::telemetry::MetricsSnapshot& metrics) {
    if (!tracing) {
      return true;
    }
    auto& recorder = bds::telemetry::TraceRecorder::Global();
    recorder.Stop();
    if (!trace_json.empty()) {
      auto status = recorder.WriteChromeTrace(trace_json);
      if (!status.ok()) {
        std::fprintf(stderr, "trace: %s\n", status.ToString().c_str());
        return false;
      }
      std::printf("Wrote %zu trace events (%zu dropped) to %s\n", recorder.size(),
                  recorder.dropped(), trace_json.c_str());
    }
    if (!summary_jsonl.empty()) {
      auto status = recorder.WriteRunSummary(summary_jsonl, metrics);
      if (!status.ok()) {
        std::fprintf(stderr, "summary: %s\n", status.ToString().c_str());
        return false;
      }
      std::printf("Wrote metrics summary to %s\n", summary_jsonl.c_str());
    }
    if (verbose) {
      std::printf("%s", metrics.ToString().c_str());
    }
    return true;
  };

  // Writes the flight-recorder journal; shared by both run modes.
  auto finish_flight_recorder = [&]() {
    if (flight_recorder.empty()) {
      return true;
    }
    auto& fr = bds::telemetry::FlightRecorder::Global();
    fr.Stop();
    auto status = fr.WriteJsonl(flight_recorder);
    if (!status.ok()) {
      std::fprintf(stderr, "flight recorder: %s\n", status.ToString().c_str());
      return false;
    }
    std::printf("Wrote %lld transfer journals (%lld events) to %s\n",
                static_cast<long long>(fr.num_transfers()),
                static_cast<long long>(fr.num_events()), flight_recorder.c_str());
    return true;
  };

  // 3a. Steady-state service mode: open-loop arrivals instead of one job.
  if (duration > 0.0) {
    bds::SteadyStateOptions steady;
    steady.duration = duration;
    steady.arrivals.jobs_per_hour = arrival_rate;
    steady.arrivals.size_scale = 1e-6;  // TB-scale trace shapes -> laptop scale.
    steady.admission.enabled = true;
    steady.overload.enabled = true;
    if (timeseries_dt > 0.0 || !slo_json.empty()) {
      steady.timeseries.enabled = true;
      steady.timeseries.sample_dt = timeseries_dt > 0.0 ? timeseries_dt : 60.0;
      steady.timeseries.jsonl_path = slo_json;
    }
    auto steady_report = (*service)->RunSteadyState(steady);
    if (!steady_report.ok()) {
      std::fprintf(stderr, "steady-state run: %s\n",
                   steady_report.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", steady_report->ToString().c_str());
    if (!slo_json.empty() && steady_report->timeseries_samples > 0) {
      std::printf("Wrote SLO time-series (%lld samples, %zu alerts) to %s\n",
                  static_cast<long long>(steady_report->timeseries_samples),
                  steady_report->slo_alerts.size(), slo_json.c_str());
    }
    if (!finish_tracing(steady_report->run.telemetry) || !finish_flight_recorder()) {
      return 1;
    }
    return steady_report->run.stop_reason == bds::StopReason::kAborted ? 2 : 0;
  }

  // 3. Submit a multicast job: DC0 -> {DC1, DC2, DC3}.
  std::vector<bds::DcId> dests;
  for (bds::DcId d = 1; d < std::min(dcs, 4); ++d) {
    dests.push_back(d);
  }
  auto job = (*service)->CreateJob(/*source_dc=*/0, dests, bds::GB(size_gb));
  if (!job.ok()) {
    std::fprintf(stderr, "job: %s\n", job.status().ToString().c_str());
    return 1;
  }

  // 4. Run to completion and report.
  auto report = (*service)->Run();
  if (!report.ok()) {
    std::fprintf(stderr, "run: %s\n", report.status().ToString().c_str());
    return 1;
  }

  std::printf("Replicated %.1f GB to %zu DCs in %.1f s (%zu cycles)\n", size_gb, dests.size(),
              report->completion_time, report->cycles.size());

  bds::AsciiTable table({"destination DC", "completion (s)"});
  for (const auto& [dc, t] : report->dc_completion) {
    table.AddRow({"dc" + std::to_string(dc), bds::AsciiTable::Num(t, 1)});
  }
  table.Print();

  if (report->feedback_delays.count() > 0) {
    std::printf("Controller feedback loop: median %.0f ms, p90 %.0f ms\n",
                report->feedback_delays.Quantile(0.5) * 1e3,
                report->feedback_delays.Quantile(0.9) * 1e3);
  }

  if (!finish_tracing(report->telemetry) || !finish_flight_recorder()) {
    return 1;
  }
  return report->completed ? 0 : 2;
}

// One repetition of a whole-run BDS workload, driven only through the public
// BdsService API (BuildGeoTopology / BuildFullMesh -> BdsService::Create ->
// CreateJob or RunSteadyState), printed as one JSON object of raw figures on
// stdout. perfbench/run.py repeats it, derives the metrics and checks them.
//
//   bds_perf --workload=bulk_oneshot --seed=7
//   bds_perf --workload=thin_diurnal --seed=7 --trace-out=t.json --trace-capacity=1048576
//
// Without --trace-out nothing inside the program is recorded: the figures are
// what an untraced user run costs. With it, the trace recorder (and with it
// the metrics registry) is started before set-up, the benchmark's own spans
// wrap topology build, Create, job submission and the run call, a rate
// observer counts every rate the simulator assigns, and the run's counters,
// timers and the recorder's drop count are added to the output.
//
// Every run has validate_invariants on, so each one checks link capacities
// and all fingerprints of one seed are comparable, traced or not.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "src/core/service.h"
#include "src/telemetry/telemetry.h"
#include "src/topology/builders.h"
#include "src/workload/arrival_process.h"

namespace bds {
namespace {

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// splitmix64: derives every input of a workload from the one --seed.
uint64_t NextSeed(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double NextUnit(uint64_t& state) {  // Uniform in [0, 1).
  return static_cast<double>(NextSeed(state) >> 11) * 0x1.0p-53;
}

// A benchmark-level span in the trace (no-op when the recorder is off), so
// set-up and the run call show next to the program's own spans.
class BenchSpan {
 public:
  explicit BenchSpan(const char* name) : name_(name) {
    telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::Global();
    if (recorder.active()) {
      start_ns_ = recorder.NowNs();
    }
  }
  ~BenchSpan() {
    telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::Global();
    if (start_ns_ >= 0 && recorder.active()) {
      recorder.Complete(name_, "perfbench", start_ns_, recorder.NowNs() - start_ns_);
    }
  }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  const char* name_;
  int64_t start_ns_ = -1;
};

// Minimal JSON object writer for one flat-ish record on stdout.
class JsonOut {
 public:
  JsonOut() { std::fputc('{', stdout); }
  ~JsonOut() { std::fputs("}\n", stdout); }
  JsonOut(const JsonOut&) = delete;
  JsonOut& operator=(const JsonOut&) = delete;

  void Key(const char* key) {
    std::printf("%s\"%s\":", first_ ? "" : ",", key);
    first_ = false;
  }
  void Num(const char* key, double v) {
    Key(key);
    std::printf("%.17g", v);
  }
  void Int(const char* key, int64_t v) {
    Key(key);
    std::printf("%" PRId64, v);
  }
  void Str(const char* key, const std::string& v) {
    Key(key);
    std::printf("\"%s\"", v.c_str());
  }
  void Bool(const char* key, bool v) {
    Key(key);
    std::fputs(v ? "true" : "false", stdout);
  }
  void Array(const char* key, const std::vector<double>& xs) {
    Key(key);
    std::fputc('[', stdout);
    for (size_t i = 0; i < xs.size(); ++i) {
      std::printf("%s%.9g", i == 0 ? "" : ",", xs[i]);
    }
    std::fputc(']', stdout);
  }

 private:
  bool first_ = true;
};

// The raw outcome of one repetition.
struct Rep {
  double topology_build_s = 0.0;
  double create_s = 0.0;
  double submit_s = 0.0;
  double run_cpu_s = 0.0;
  double run_wall_s = 0.0;

  std::string stop_reason;
  uint64_t fingerprint = 0;
  double max_link_overshoot = 1.0;  // Replaced by the run's measured value.
  int64_t total_cycles = 0;

  // Owed vs credited (block, destination DC) deliveries. With rejections the
  // exact owed set is unknown from outside: owed_upper is every offered job.
  int64_t credited = 0;
  int64_t owed = -1;  // -1 when not known exactly.
  int64_t owed_upper = 0;
  int64_t retired_blocks = 0;
  int64_t redundant = 0;
  int64_t pending_at_end = 0;

  int64_t jobs_generated = 0;
  int64_t jobs_offered = 0;
  int64_t jobs_accepted = 0;
  int64_t jobs_rejected = 0;
  int64_t jobs_deferred = 0;
  int64_t jobs_completed = 0;
  int64_t jobs_regenerated = 0;  // The benchmark's own replay of the stream.

  int64_t overrun_cycles = 0;
  int64_t rung_transitions = 0;
  int64_t degraded_cycles = 0;

  std::vector<double> job_minutes;  // Per-sample completion times.
  const char* job_sample_kind = "";
  std::vector<double> decide_ms;  // Per-cycle schedule + route.

  telemetry::MetricsSnapshot telemetry;
};

constexpr int kSetupRepeats = 5;

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

// Per-cycle decision time and ladder occupancy from the kept CycleStats
// (max_cycle_stats = 0 keeps every cycle). Cycles that ran no decision
// (top ladder rung, controller down) carry no sample.
void CollectCycles(const RunReport& run, Rep& rep) {
  for (const CycleStats& c : run.cycles) {
    if (c.rung > 0) {
      ++rep.degraded_cycles;
    }
    const double decide = c.scheduling_seconds + c.routing_seconds;
    if (c.controller_up && c.rung < static_cast<int>(DegradationRung::kExtendDecisions)) {
      rep.decide_ms.push_back(decide * 1e3);
    }
  }
}

void CollectRun(const RunReport& run, Rep& rep) {
  rep.stop_reason = StopReasonName(run.stop_reason);
  rep.total_cycles = run.total_cycles;
  if (run.max_link_overshoot.has_value()) {
    rep.max_link_overshoot = *run.max_link_overshoot;
  }
  rep.telemetry = run.telemetry;
  CollectCycles(run, rep);
}

void CollectState(BdsService& service, Rep& rep) {
  const ReplicaState& state = service.mutable_controller()->state();
  rep.credited = state.total_credited();
  rep.redundant = state.redundant_deliveries();
  rep.pending_at_end = state.num_pending();
  rep.retired_blocks = state.retired_blocks();
}

// A workload after set-up: a service with its job submitted (bulk) or its
// open-loop arrivals configured (steady), ready for the run call.
struct Prepared {
  std::unique_ptr<BdsService> service;
  bool steady = false;
  SteadyStateOptions steady_options;
  std::vector<DcId> bulk_dests;
  Bytes bulk_bytes = 0.0;
};

// Wall seconds of each set-up step of one Prepare call.
struct SetupTimes {
  double topology_s = 0.0;
  double create_s = 0.0;
  double submit_s = 0.0;
};

template <typename Fn>
auto Timed(const char* span_name, double& seconds, Fn&& fn) {
  BenchSpan span(span_name);
  const double t0 = WallSeconds();
  auto result = fn();
  seconds = WallSeconds() - t0;
  return result;
}

std::unique_ptr<BdsService> Create(Topology topo, uint64_t seed, SetupTimes& t) {
  return Timed("perfbench.create", t.create_s, [&] {
    BdsOptions options;
    options.num_threads = 1;
    options.num_shards = 1;
    options.validate_invariants = true;
    options.seed = seed;
    return BdsService::Create(std::move(topo), options).value();
  });
}

// Topology of bulk_oneshot and steady_small_jobs: the reference deployment
// of quickstart, 10 DCs x 20 servers with 40 MB/s NICs. The deployment is
// fixed; the seed varies what runs on it.
Topology BuildGeo(SetupTimes& t) {
  return Timed("perfbench.topology_build", t.topology_s, [] {
    GeoTopologyOptions topo;
    topo.num_dcs = 10;
    topo.servers_per_dc = 20;
    topo.server_up = MBps(40.0);
    topo.server_down = MBps(40.0);
    return BuildGeoTopology(topo).value();
  });
}

// bulk_oneshot: one bulk job from DC0 to DC1-DC3 (Fig 9 / Table 3 shape),
// its size jittered by the seed. Job samples are the per-destination-server
// completion times (Fig 9's CDF).
constexpr double kBulkGb = 6.0;
constexpr double kBulkSizeJitter = 0.002;

Prepared PrepareBulk(uint64_t seed, SetupTimes& t) {
  uint64_t s = seed;
  const uint64_t service_seed = NextSeed(s);
  Prepared p;
  p.bulk_dests = {1, 2, 3};
  p.bulk_bytes = GB(kBulkGb) * (1.0 + kBulkSizeJitter * (2.0 * NextUnit(s) - 1.0));
  p.service = Create(BuildGeo(t), service_seed, t);
  Timed("perfbench.submit", t.submit_s,
        [&] { return p.service->CreateJob(0, p.bulk_dests, p.bulk_bytes).value(); });
  return p;
}

SteadyStateOptions SteadyDefaults() {
  SteadyStateOptions steady;
  steady.drain = true;
  steady.drain_limit = Hours(2.0);
  steady.max_cycle_stats = 0;  // Keep every cycle for the decide-time samples.
  steady.admission.enabled = true;
  steady.overload.enabled = true;
  return steady;
}

// steady_small_jobs: open-loop Poisson stream of small Fig-2-shaped jobs on
// the reference deployment; admission and the ladder are on but idle.
constexpr double kSmallMinutes = 60.0;
constexpr double kSmallJobsPerHour = 6000.0;

Prepared PrepareSmallJobs(uint64_t seed, SetupTimes& t) {
  uint64_t s = seed;
  const uint64_t service_seed = NextSeed(s);
  const uint64_t arrival_seed = NextSeed(s);
  Prepared p;
  p.steady = true;
  p.service = Create(BuildGeo(t), service_seed, t);
  p.steady_options = Timed("perfbench.submit", t.submit_s, [&] {
    SteadyStateOptions steady = SteadyDefaults();
    steady.duration = Minutes(kSmallMinutes);
    steady.arrivals.pattern = ArrivalPattern::kPoisson;
    steady.arrivals.jobs_per_hour = kSmallJobsPerHour;
    steady.arrivals.size_scale = 1e-6;
    steady.arrivals.seed = arrival_seed;
    return steady;
  });
  return p;
}

// thin_diurnal: the 4-DC thin mesh of bench/bench_steady_state.cc with
// reject admission, the ladder under the stressed cycle-cost model, and
// diurnal arrivals swinging +-50% around the ~1,200 jobs/h knee, so every
// job is offered both below and above the knee in one run.
constexpr double kThinHours = 24.0;
constexpr double kThinPeriodHours = 1.0;
constexpr double kKneeJobsPerHour = 1200.0;

Prepared PrepareThinDiurnal(uint64_t seed, SetupTimes& t) {
  uint64_t s = seed;
  const uint64_t service_seed = NextSeed(s);
  const uint64_t arrival_seed = NextSeed(s);
  Prepared p;
  p.steady = true;
  Topology topo = Timed("perfbench.topology_build", t.topology_s, [] {
    return BuildFullMesh(4, 1, MBps(1.0), MBps(4.0), MBps(4.0)).value();
  });
  p.service = Create(std::move(topo), service_seed, t);
  p.steady_options = Timed("perfbench.submit", t.submit_s, [&] {
    SteadyStateOptions steady = SteadyDefaults();
    steady.duration = Hours(kThinHours);
    steady.arrivals.pattern = ArrivalPattern::kDiurnal;
    steady.arrivals.jobs_per_hour = kKneeJobsPerHour;
    steady.arrivals.diurnal_amplitude = 0.5;
    steady.arrivals.diurnal_period = Hours(kThinPeriodHours);
    steady.arrivals.size_scale = 2e-6;
    steady.arrivals.seed = arrival_seed;
    steady.admission.policy = AdmissionPolicy::kReject;
    steady.admission.max_backlog_cycles = 30.0;
    steady.admission.bootstrap_cycles = 8;
    steady.overload.cost.base_seconds = 1e-4;
    steady.overload.cost.per_pending_seconds = 1.2e-2;
    steady.overload.recover_cycles = 5;
    return steady;
  });
  return p;
}

void RunBulk(Prepared& p, Rep& rep) {
  const double cpu0 = CpuSeconds();
  const double wall0 = WallSeconds();
  StatusOr<RunReport> report = [&] {
    BenchSpan span("perfbench.run");
    return p.service->Run();
  }();
  rep.run_cpu_s = CpuSeconds() - cpu0;
  rep.run_wall_s = WallSeconds() - wall0;
  BDS_CHECK_MSG(report.ok(), report.status().ToString().c_str());

  CollectRun(*report, rep);
  rep.fingerprint = report->Fingerprint();
  CollectState(*p.service, rep);
  const int64_t blocks =
      MakeJob(0, 0, p.bulk_dests, p.bulk_bytes, p.service->options().block_size).value().num_blocks();
  rep.owed = blocks * static_cast<int64_t>(p.bulk_dests.size());
  rep.owed_upper = rep.owed;
  rep.jobs_generated = rep.jobs_regenerated = rep.jobs_offered = rep.jobs_accepted = 1;
  rep.jobs_completed = report->jobs_completed_total;
  rep.job_minutes = report->ServerCompletionMinutes();
  rep.job_sample_kind = "destination_server";
}

// Replays the open-loop job stream RunSteadyState consumed (same options,
// same fill-ins) to learn what was offered: job count and owed deliveries.
void ReplayArrivals(const SteadyStateOptions& steady, const BdsService& service, Rep& rep) {
  ArrivalProcessOptions ap = steady.arrivals;
  ap.num_dcs = service.topology().num_dcs();
  ap.block_size = service.options().block_size;
  ap.first_job_id = 0;
  ArrivalProcess replay(ap);
  while (replay.NextArrivalTime() < steady.duration) {
    MulticastJob job = replay.Take();
    rep.owed_upper += job.num_blocks() * static_cast<int64_t>(job.dest_dcs.size());
    ++rep.jobs_regenerated;
  }
}

void RunSteady(Prepared& p, Rep& rep) {
  BdsService& service = *p.service;
  const double cpu0 = CpuSeconds();
  const double wall0 = WallSeconds();
  StatusOr<SteadyStateReport> report = [&] {
    BenchSpan span("perfbench.run");
    return service.RunSteadyState(p.steady_options);
  }();
  rep.run_cpu_s = CpuSeconds() - cpu0;
  rep.run_wall_s = WallSeconds() - wall0;
  BDS_CHECK_MSG(report.ok(), report.status().ToString().c_str());

  CollectRun(report->run, rep);
  rep.fingerprint = report->Fingerprint();
  CollectState(service, rep);
  rep.jobs_generated = report->jobs_generated;
  rep.jobs_offered = report->admission.offered;
  rep.jobs_accepted = report->admission.accepted;
  rep.jobs_rejected = report->admission.rejected;
  rep.jobs_deferred = report->admission.deferred;
  rep.jobs_completed = report->jobs_completed;
  rep.overrun_cycles = report->cycle_overruns;
  rep.rung_transitions = static_cast<int64_t>(report->transitions.size());
  for (double d : report->run.job_durations.samples()) {
    rep.job_minutes.push_back(ToMinutes(d));
  }
  rep.job_sample_kind = "admitted_job";
  ReplayArrivals(p.steady_options, service, rep);
  if (rep.jobs_rejected == 0 && rep.jobs_deferred == 0) {
    rep.owed = rep.owed_upper;  // Every offered job was admitted.
  }
}

void PrintRep(const std::string& workload, uint64_t seed, const Rep& rep, bool traced,
              int64_t rate_changes, size_t trace_events, size_t trace_dropped) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  JsonOut out;
  out.Str("workload", workload);
  out.Int("seed", static_cast<int64_t>(seed));
  out.Bool("traced", traced);
  out.Num("topology_build_s", rep.topology_build_s);
  out.Num("create_s", rep.create_s);
  out.Num("submit_s", rep.submit_s);
  out.Num("run_cpu_s", rep.run_cpu_s);
  out.Num("run_wall_s", rep.run_wall_s);
  out.Num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  out.Str("stop_reason", rep.stop_reason);
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016" PRIx64, rep.fingerprint);
  out.Str("fingerprint", fp);
  out.Num("max_link_overshoot", rep.max_link_overshoot);
  out.Int("total_cycles", rep.total_cycles);
  out.Int("credited", rep.credited);
  out.Int("owed", rep.owed);
  out.Int("owed_upper", rep.owed_upper);
  out.Int("retired_blocks", rep.retired_blocks);
  out.Int("redundant", rep.redundant);
  out.Int("pending_at_end", rep.pending_at_end);
  out.Int("jobs_generated", rep.jobs_generated);
  out.Int("jobs_regenerated", rep.jobs_regenerated);
  out.Int("jobs_offered", rep.jobs_offered);
  out.Int("jobs_accepted", rep.jobs_accepted);
  out.Int("jobs_rejected", rep.jobs_rejected);
  out.Int("jobs_deferred", rep.jobs_deferred);
  out.Int("jobs_completed", rep.jobs_completed);
  out.Int("overrun_cycles", rep.overrun_cycles);
  out.Int("rung_transitions", rep.rung_transitions);
  out.Int("degraded_cycles", rep.degraded_cycles);
  out.Str("job_sample_kind", rep.job_sample_kind);
  out.Array("job_minutes", rep.job_minutes);
  out.Array("decide_ms", rep.decide_ms);
  if (!traced) {
    return;
  }
  out.Int("rate_changes", rate_changes);
  out.Int("trace_events", static_cast<int64_t>(trace_events));
  out.Int("trace_dropped", static_cast<int64_t>(trace_dropped));
  out.Key("counters");
  std::fputc('{', stdout);
  for (size_t i = 0; i < rep.telemetry.counters.size(); ++i) {
    const auto& c = rep.telemetry.counters[i];
    std::printf("%s\"%s\":%" PRId64, i == 0 ? "" : ",", c.name.c_str(), c.value);
  }
  std::fputc('}', stdout);
  // Histograms (timers included) as count / sum / max of the recorded
  // values; timers record milliseconds.
  out.Key("histograms");
  std::fputc('{', stdout);
  for (size_t i = 0; i < rep.telemetry.histograms.size(); ++i) {
    const auto& h = rep.telemetry.histograms[i];
    std::printf("%s\"%s\":{\"count\":%" PRId64 ",\"sum\":%.17g,\"max\":%.17g}",
                i == 0 ? "" : ",", h.name.c_str(), h.hist.total(), h.sum, h.max);
  }
  std::fputc('}', stdout);
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  std::string trace_out;
  size_t trace_capacity = size_t{1} << 20;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--workload=", 11) == 0) {
      workload = a + 11;
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      seed = std::strtoull(a + 7, nullptr, 10);
    } else if (std::strncmp(a, "--trace-out=", 12) == 0) {
      trace_out = a + 12;
    } else if (std::strncmp(a, "--trace-capacity=", 17) == 0) {
      trace_capacity = std::strtoull(a + 17, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a);
      return 2;
    }
  }
  Prepared (*prepare)(uint64_t, SetupTimes&) = nullptr;
  if (workload == "bulk_oneshot") {
    prepare = PrepareBulk;
  } else if (workload == "steady_small_jobs") {
    prepare = PrepareSmallJobs;
  } else if (workload == "thin_diurnal") {
    prepare = PrepareThinDiurnal;
  } else {
    std::fprintf(stderr, "unknown --workload: '%s'\n", workload.c_str());
    return 2;
  }

  const bool traced = !trace_out.empty();
  telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::Global();
  if (traced) {
    recorder.Start(trace_capacity);
  }
  // Set up several times and keep the median of each step; the last
  // service runs.
  Prepared prepared;
  std::vector<double> topology_s, create_s, submit_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    SetupTimes t;
    prepared = prepare(seed, t);
    topology_s.push_back(t.topology_s);
    create_s.push_back(t.create_s);
    submit_s.push_back(t.submit_s);
  }
  Rep rep;
  rep.topology_build_s = Median(topology_s);
  rep.create_s = Median(create_s);
  rep.submit_s = Median(submit_s);

  // The plan-repair probe of the traced run: counts every rate the simulator
  // assigns to a flow (a tiny threshold reports each change, and a flow's
  // first rate always reports), so changes per started flow is 1.0 when
  // every pinned flow kept the rate it was planned at. Observing never
  // changes the run; the fingerprint check holds it to that.
  int64_t rate_changes = 0;
  if (traced) {
    prepared.service->mutable_controller()->mutable_simulator()->SetRateObserver(
        [&rate_changes](int64_t, int64_t, SimTime, Rate, Rate) {
          ++rate_changes;
          return true;
        },
        1e-9);
  }
  if (prepared.steady) {
    RunSteady(prepared, rep);
  } else {
    RunBulk(prepared, rep);
  }
  size_t events = 0;
  size_t dropped = 0;
  if (traced) {
    recorder.Stop();
    events = recorder.size();
    dropped = recorder.dropped();
    Status status = recorder.WriteChromeTrace(trace_out);
    if (!status.ok()) {
      std::fprintf(stderr, "trace: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  PrintRep(workload, seed, rep, traced, rate_changes, events, dropped);
  return 0;
}

}  // namespace
}  // namespace bds

int main(int argc, char** argv) { return bds::Main(argc, argv); }

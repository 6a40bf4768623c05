// Flow-level simulator hot-path benchmark: drain time of N concurrent flows
// under NetworkSimulator's incremental event loop vs ReferenceSimulator
// (tests/oracles.h), the straightforward loop the parity suite checks it
// against.
//
// The workload models many independent replication jobs in flight at once —
// the regime the controller simulates at Baidu scale: M disjoint DC-pair
// clusters (2 DCs, 2 servers each, one WAN link), with flows spread evenly
// across clusters. The reference re-solves every cluster after every flow
// completion and scans every flow for the next one; incrementally, only the
// finished flow's cluster is re-solved and only its flows are touched — the
// two must stay bit identical, which the benchmark asserts via a
// completion-record fingerprint before reporting any timing. The timed
// drain includes the first reallocation, and with it the simulator's
// one-off locality reorder of the freshly loaded pool.
//
//   bench_sim_hotpath --json=BENCH_simulator.json   # full sweep
//   bench_sim_hotpath --smoke --json=out.json       # reduced scale
//   bench_sim_hotpath --large-only --json=out.json  # only the large points
//
// Whole runs hand the simulator a second shape, which the sweep adds as one
// more point: a single all-pinned, oversubscribed bulk component of 2,100
// flows (see BuildBulkNet), where the incremental loop skips the re-solve
// after each departure at its pin and re-solves after each scaled-down one.
//
// Two point families are produced:
//   * gated sweep points (reference vs incremental, bit-identical): the
//     cluster points and the bulk point; the config-relative regression
//     gate runs on these;
//   * large incremental-only points (the reference's O(F) event cost cannot
//     reach them): 1e5 and 1e6 concurrent flows, recorded under
//     "large_points" and gated on absolute CPU seconds.
// --smoke keeps the small flow counts and scales the large family down to
// 1e5, so it finishes in seconds (`bench-smoke` ctest label); the full sweep
// runs the 1e6 drain.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/simulator/network_simulator.h"
#include "src/topology/topology.h"
#include "tests/oracles.h"

namespace bds {
namespace {

// "reference" is ReferenceSimulator, "incremental" NetworkSimulator; the
// regression gate normalizes "incremental" by "reference".
constexpr const char* kSweepConfigs[] = {"reference", "incremental"};

struct SweepPoint {
  const char* shape = "";  // "clusters" or "bulk".
  int64_t flows = 0;
  // Wall / process-CPU seconds for the full drain, min over repetitions.
  // The gate compares the CPU column (stable on contended runners).
  double seconds[std::size(kSweepConfigs)] = {};
  double cpu_seconds[std::size(kSweepConfigs)] = {};
};

// Incremental-only scale point (the reference config cannot reach these).
struct LargePoint {
  int64_t flows = 0;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  int64_t events = 0;
};

double ProcessCpuSeconds() {
  timespec ts;
  BDS_CHECK(clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

uint64_t Mix64(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdull;
  return h ^ (h >> 33);
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

struct XorShift64 {
  uint64_t s;
  uint64_t Next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

// M disjoint DC-pair clusters; cluster c's flows go A-server -> WAN -> B-server.
struct ClusterNet {
  Topology topo;
  std::vector<std::vector<LinkId>> paths;  // [cluster][src_server*2 + dst_server]
};

ClusterNet BuildClusters(int num_clusters) {
  ClusterNet net;
  for (int c = 0; c < num_clusters; ++c) {
    std::string suffix = std::to_string(c);
    DcId a = net.topo.AddDatacenter("a" + suffix);
    DcId b = net.topo.AddDatacenter("b" + suffix);
    ServerId src[2];
    ServerId dst[2];
    for (int s = 0; s < 2; ++s) {
      src[s] = net.topo.AddServer(a, MBps(60.0), MBps(60.0)).value();
      dst[s] = net.topo.AddServer(b, MBps(60.0), MBps(60.0)).value();
    }
    LinkId wan = net.topo.AddWanLink(a, b, MBps(100.0)).value();
    for (int i = 0; i < 2; ++i) {
      for (int j = 0; j < 2; ++j) {
        net.paths.push_back({net.topo.server(src[i]).uplink, wan,
                             net.topo.server(dst[j]).downlink});
      }
    }
  }
  return net;
}

struct FlowSpec {
  size_t path;  // Index into ClusterNet::paths.
  Bytes bytes;
  Rate pinned;
};

std::vector<FlowSpec> MakeWorkload(int64_t num_flows, int num_clusters) {
  XorShift64 rng{0x5DEECE66Dull + static_cast<uint64_t>(num_flows)};
  std::vector<FlowSpec> specs;
  specs.reserve(static_cast<size_t>(num_flows));
  for (int64_t i = 0; i < num_flows; ++i) {
    FlowSpec spec;
    size_t cluster = static_cast<size_t>(i) % static_cast<size_t>(num_clusters);
    spec.path = cluster * 4 + rng.Next() % 4;
    spec.bytes = MB(1.0 + static_cast<double>(rng.Next() % 64));
    spec.pinned =
        rng.Next() % 5 == 0 ? MBps(0.5 + 0.25 * static_cast<double>(rng.Next() % 4)) : 0.0;
    specs.push_back(spec);
  }
  return specs;
}

// The component shape of a bulk replication (the bds_perf bulk_oneshot
// workload's are ~2,100 all-pinned flows): 20 source servers in one DC send
// to 21 destination servers, 7 in each of three other DCs, five flows per
// pair, over WAN links that never bind. Paths are [src * 21 + dst].
constexpr int kBulkSources = 20;
constexpr int kBulkDestDcs = 3;
constexpr int kBulkDestsPerDc = 7;
constexpr int kBulkDests = kBulkDestDcs * kBulkDestsPerDc;
constexpr int kBulkFlowsPerPair = 5;

ClusterNet BuildBulkNet() {
  ClusterNet net;
  DcId src_dc = net.topo.AddDatacenter("src");
  std::vector<ServerId> srcs;
  for (int i = 0; i < kBulkSources; ++i) {
    srcs.push_back(net.topo.AddServer(src_dc, MBps(40.0), MBps(40.0)).value());
  }
  std::vector<std::pair<LinkId, LinkId>> dests;  // (WAN link, downlink).
  for (int d = 0; d < kBulkDestDcs; ++d) {
    DcId dc = net.topo.AddDatacenter("dst" + std::to_string(d));
    LinkId wan = net.topo.AddWanLink(src_dc, dc, GBps(10.0)).value();
    for (int i = 0; i < kBulkDestsPerDc; ++i) {
      ServerId dst = net.topo.AddServer(dc, MBps(40.0), MBps(40.0)).value();
      dests.emplace_back(wan, net.topo.server(dst).downlink);
    }
  }
  for (ServerId src : srcs) {
    for (const auto& [wan, downlink] : dests) {
      net.paths.push_back({net.topo.server(src).uplink, wan, downlink});
    }
  }
  return net;
}

// Each source NIC's pins sum to 1.1-1.3x its 40 MB/s, split unevenly among
// its flows, and sizes are staggered: phase 1 scales flows down at most
// NICs, and the drain mixes re-solves after scaled-down departures with
// skipped ones after departures at their pins.
std::vector<FlowSpec> MakeBulkWorkload() {
  XorShift64 rng{0x5DEECE66Dull};
  std::vector<FlowSpec> specs;
  for (size_t src = 0; src < kBulkSources; ++src) {
    const size_t first = specs.size();
    double weight_sum = 0.0;
    for (size_t dst = 0; dst < kBulkDests; ++dst) {
      for (int k = 0; k < kBulkFlowsPerPair; ++k) {
        FlowSpec spec;
        spec.path = src * kBulkDests + dst;
        spec.bytes = MB(2.0 + static_cast<double>(rng.Next() % 40));
        spec.pinned = 1.0 + static_cast<double>(rng.Next() % 4);  // A weight, scaled below.
        weight_sum += spec.pinned;
        specs.push_back(spec);
      }
    }
    const Rate nic_pins =
        MBps(40.0) * (1.1 + 0.2 * static_cast<double>(rng.Next() % 1001) / 1000.0);
    for (size_t i = first; i < specs.size(); ++i) {
      specs[i].pinned = nic_pins * specs[i].pinned / weight_sum;
    }
  }
  return specs;
}

struct DrainResult {
  double wall = 0.0;
  double cpu = 0.0;
  uint64_t fingerprint = 0;
  int64_t events = 0;
  int64_t reallocations = 0;
};

template <typename Sim>
DrainResult DrainOnce(const ClusterNet& net, const std::vector<FlowSpec>& specs) {
  Sim sim(&net.topo);
  int64_t completed = 0;
  uint64_t fp = 0;
  sim.SetCompletionCallback([&](const FlowRecord& r) {
    ++completed;
    fp = Mix64(fp, static_cast<uint64_t>(r.id));
    fp = Mix64(fp, DoubleBits(r.end_time));
    fp = Mix64(fp, DoubleBits(r.bytes));
  });
  // All flows land before the first reallocation, as a controller cycle's
  // do. From 4,096 flows on, that reallocation first lays the pool out
  // component by component (bit-identical results either way —
  // tests/simulator_batch_test.cc holds the parity).
  for (const FlowSpec& spec : specs) {
    BDS_CHECK(sim.StartFlow(net.paths[spec.path], spec.bytes, spec.pinned).ok());
  }
  DrainResult result;
  double cpu_start = ProcessCpuSeconds();
  auto start = std::chrono::steady_clock::now();
  auto end = sim.RunUntilIdle();
  auto stop = std::chrono::steady_clock::now();
  result.cpu = ProcessCpuSeconds() - cpu_start;
  result.wall = std::chrono::duration<double>(stop - start).count();
  BDS_CHECK(end.ok());
  BDS_CHECK(completed == static_cast<int64_t>(specs.size()));
  result.fingerprint = fp;
  result.events = sim.num_completion_events();
  result.reallocations = sim.num_reallocations();
  return result;
}

int ClustersFor(int64_t num_flows) {
  // Keep ~100 flows per cluster so the per-event component stays job-sized
  // as N grows, mirroring many concurrent inter-DC jobs.
  int clusters = static_cast<int>(num_flows / 100);
  return clusters < 8 ? 8 : clusters;
}

// Telemetry tax on the hot path: the 1e5-flow incremental drain with
// everything observing (metrics registry, trace ring, flight recorder with a
// controller-style rate observer) vs all-off. Gated at ratio <= 1.03 by
// tools/check_bench_regression.py — the PR-5 cost contract, extended to the
// flight recorder.
struct OverheadPoint {
  int64_t flows = 0;
  double off_cpu_seconds = 0.0;
  double on_cpu_seconds = 0.0;
  double ratio = 1.0;
};

struct SweepResult {
  std::vector<SweepPoint> points;
  std::vector<LargePoint> large;
  OverheadPoint overhead;
};

OverheadPoint MeasureTelemetryOverhead(bool smoke) {
  const int64_t num_flows = 100'000;
  const int clusters = ClustersFor(num_flows);
  ClusterNet net = BuildClusters(clusters);
  std::vector<FlowSpec> specs = MakeWorkload(num_flows, clusters);
  const int reps = smoke ? 9 : 11;

  // Mirrors the controller's Run()-entry wiring: tagged flows, an observer
  // that filters on tag2, resolves the owning transfer, and journals the
  // changepoint — 512 concurrent transfers, ~200 flows each, every flow
  // tagged with its transfer as the controller tags its block flows.
  auto drain = [&](bool instrumented) {
    NetworkSimulator sim(&net.topo);
    std::unordered_map<int64_t, JobId> jobs;
    if (instrumented) {
      telemetry::MetricsRegistry::Global().Reset();
      telemetry::TraceRecorder::Global().Start();
      auto& fr = telemetry::FlightRecorder::Global();
      fr.Start();
      // One map entry per *transfer*, as in the controller: flows of the
      // same transfer share its tag (see StartFlow below), so the observer
      // resolves against a transfers-sized map, not a flows-sized one.
      jobs.reserve(512);
      for (int64_t t = 0; t < 512; ++t) {
        jobs.emplace(t, static_cast<JobId>(t));
      }
      for (JobId j = 0; j < 512; ++j) {
        fr.Arrival(j, 0.0, 0, 1, 4, MB(16.0));
      }
      sim.SetRateObserver(
          [&jobs](int64_t tag, int64_t tag2, SimTime t, Rate old_rate, Rate new_rate) {
            if (!telemetry::FlightRecorder::Global().WantsRateEvents()) {
              return false;  // Budget spent: the simulator drops the observer.
            }
            if (tag2 != 0) {
              return true;
            }
            auto it = jobs.find(tag);
            if (it == jobs.end()) {
              return true;
            }
            telemetry::FlightRecorder::Global().RateChange(it->second, t, old_rate, new_rate);
            return true;
          },
          telemetry::kFlightMinRelativeRateChange);
    }
    for (size_t i = 0; i < specs.size(); ++i) {
      BDS_CHECK(sim.StartFlow(net.paths[specs[i].path], specs[i].bytes, specs[i].pinned,
                              /*tag=*/static_cast<int64_t>(i) % 512, /*tag2=*/0)
                    .ok());
    }
    double cpu_start = ProcessCpuSeconds();
    auto end = sim.RunUntilIdle();
    double cpu = ProcessCpuSeconds() - cpu_start;
    BDS_CHECK(end.ok());
    if (instrumented) {
      telemetry::TraceRecorder::Global().Stop();
      telemetry::FlightRecorder::Global().Stop();
      telemetry::SetEnabled(false);
    }
    return cpu;
  };

  OverheadPoint p;
  p.flows = num_flows;
  (void)drain(false);  // Warmup.
  // Interleave off/on reps and take the MEDIAN of per-pair ratios: machine
  // load on a shared box drifts by far more than the overhead under
  // measurement, but the two drains of one pair run back to back and share a
  // load window, so their ratio mostly cancels the drift; the median then
  // discards pairs where a spike landed inside one drain. min(on)/min(off)
  // across independent reps does not have this property — the two minima can
  // sample different quiet windows and swing the ratio by several percent.
  std::vector<double> ratios;
  ratios.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    // Alternate which mode runs first so a linear load ramp biases half the
    // pairs up and half down instead of all one way.
    double off, on;
    if (r % 2 == 0) {
      off = drain(false);
      on = drain(true);
    } else {
      on = drain(true);
      off = drain(false);
    }
    if (off > 0.0) {
      ratios.push_back(on / off);
    }
    if (r == 0 || off < p.off_cpu_seconds) {
      p.off_cpu_seconds = off;
    }
    if (r == 0 || on < p.on_cpu_seconds) {
      p.on_cpu_seconds = on;
    }
  }
  std::sort(ratios.begin(), ratios.end());
  // Gate statistic: the first-quartile pair ratio. A real (systematic)
  // overhead shifts every pair up, Q1 included; a neighbor's load burst only
  // inflates the pairs it lands on, so Q1 discards it without the full
  // optimism of the minimum (which a single inverse-noise pair can fake).
  p.ratio = ratios.empty() ? 1.0 : ratios[ratios.size() / 4];
  std::printf("\n  overhead pair ratios:");
  for (double r : ratios) {
    std::printf(" %.3f", r);
  }
  std::printf("\n");
  std::printf("\ntelemetry overhead (%lld flows, incremental): off %.1f ms, "
              "all-on %.1f ms, ratio %.3fx (%lld journal events, %lld rate "
              "changepoints past budget)\n",
              static_cast<long long>(p.flows), p.off_cpu_seconds * 1e3,
              p.on_cpu_seconds * 1e3, p.ratio,
              static_cast<long long>(telemetry::FlightRecorder::Global().num_events()),
              static_cast<long long>(
                  telemetry::FlightRecorder::Global().rate_events_dropped()));
  return p;
}

SweepResult RunSweep(bool smoke, bool large_only) {
  SweepResult result;
  std::vector<int64_t> flow_counts =
      smoke ? std::vector<int64_t>{1'000, 3'000}
            : std::vector<int64_t>{1'000, 3'000, 10'000};

  bench::PrintHeader("Simulator hot path", "drain time of N concurrent flows",
                     "disjoint DC-pair clusters, ~100 flows each, mixed pinned/fair, "
                     "and one all-pinned oversubscribed 2,100-flow bulk component; "
                     "reference event loop vs incremental (bit-identical, "
                     "min over repetitions)");
  std::printf("%10s  %12s  %12s  %12s  %9s  %10s  %12s\n", "flows", "shape", "reference",
              "incremental", "speedup", "events", "comp solves");
  if (large_only) {
    flow_counts.clear();  // Only the large incremental-only family below.
  }

  // Times both configs on one workload and checks they stay bit identical.
  auto measure = [&](const char* shape, const std::string& label, const ClusterNet& net,
                     const std::vector<FlowSpec>& specs) {
    (void)DrainOnce<NetworkSimulator>(net, specs);  // Warmup.
    const int reps = specs.size() >= 10'000 ? 2 : 3;
    SweepPoint point;
    point.shape = shape;
    point.flows = static_cast<int64_t>(specs.size());
    uint64_t fingerprints[std::size(kSweepConfigs)] = {};
    DrainResult last;
    for (size_t ci = 0; ci < std::size(kSweepConfigs); ++ci) {
      double best_wall = 0.0;
      double best_cpu = 0.0;
      for (int r = 0; r < reps; ++r) {
        DrainResult res = ci == 0 ? DrainOnce<ReferenceSimulator>(net, specs)
                                  : DrainOnce<NetworkSimulator>(net, specs);
        if (r == 0 || res.wall < best_wall) {
          best_wall = res.wall;
        }
        if (r == 0 || res.cpu < best_cpu) {
          best_cpu = res.cpu;
        }
        fingerprints[ci] = res.fingerprint;
        last = res;
      }
      point.seconds[ci] = best_wall;
      point.cpu_seconds[ci] = best_cpu;
    }
    BDS_CHECK_MSG(fingerprints[0] == fingerprints[1],
                  "incremental simulation diverged from the reference");
    std::printf("%10lld  %12s  %9.1f ms  %9.1f ms  %8.2fx  %10lld  %12lld\n",
                static_cast<long long>(point.flows), label.c_str(), point.seconds[0] * 1e3,
                point.seconds[1] * 1e3, point.seconds[0] / point.seconds[1],
                static_cast<long long>(last.events),
                static_cast<long long>(last.reallocations));
    result.points.push_back(point);
  };
  for (int64_t num_flows : flow_counts) {
    int clusters = ClustersFor(num_flows);
    measure("clusters", std::to_string(clusters) + " clusters", BuildClusters(clusters),
            MakeWorkload(num_flows, clusters));
  }
  if (!large_only) {
    measure("bulk", "bulk", BuildBulkNet(), MakeBulkWorkload());
  }

  // Large incremental-only family: scales the per-event-O(F) reference
  // cannot reach. Gated separately on absolute CPU seconds (no reference
  // column to normalize by). Smoke scales 10^6 down to 10^5.
  std::vector<int64_t> large_counts =
      smoke ? std::vector<int64_t>{100'000} : std::vector<int64_t>{100'000, 1'000'000};
  std::printf("\n%10s  %10s  %12s  %12s  %10s  %12s   (incremental only)\n", "flows",
              "clusters", "wall", "cpu", "events", "comp solves");
  for (int64_t num_flows : large_counts) {
    int clusters = ClustersFor(num_flows);
    ClusterNet net = BuildClusters(clusters);
    std::vector<FlowSpec> specs = MakeWorkload(num_flows, clusters);
    LargePoint point;
    point.flows = num_flows;
    DrainResult res;
    const int reps = 2;  // First rep doubles as warmup; gate takes the min.
    for (int r = 0; r < reps; ++r) {
      res = DrainOnce<NetworkSimulator>(net, specs);
      if (r == 0 || res.wall < point.seconds) {
        point.seconds = res.wall;
      }
      if (r == 0 || res.cpu < point.cpu_seconds) {
        point.cpu_seconds = res.cpu;
      }
    }
    point.events = res.events;
    std::printf("%10lld  %10d  %9.1f ms  %9.1f ms  %10lld  %12lld\n",
                static_cast<long long>(num_flows), clusters, point.seconds * 1e3,
                point.cpu_seconds * 1e3, static_cast<long long>(res.events),
                static_cast<long long>(res.reallocations));
    result.large.push_back(point);
  }
  result.overhead = MeasureTelemetryOverhead(smoke);
  return result;
}

void WriteSweepJson(const SweepResult& result, bool smoke, const std::string& path) {
  const std::vector<SweepPoint>& points = result.points;
  std::FILE* f = std::fopen(path.c_str(), "w");
  BDS_CHECK_MSG(f != nullptr, "cannot open --json output path");
  std::fprintf(f, "{\n  \"benchmark\": \"sim_hotpath\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  // The bench must time the telemetry-off fast path; the regression check
  // fails any JSON stamped with telemetry on. Same contract for the flight
  // recorder (the telemetry_overhead section measures the instrumented path
  // explicitly — the gated points never do).
  std::fprintf(f, "  \"telemetry_enabled\": %s,\n",
               bds::telemetry::Enabled() ? "true" : "false");
  std::fprintf(f, "  \"flight_recorder_enabled\": %s,\n",
               bds::telemetry::FlightRecorder::Global().active() ? "true" : "false");
  std::fprintf(f, "  \"reference_config\": \"reference\",\n");
  std::fprintf(f, "  \"configs\": [");
  for (size_t ci = 0; ci < std::size(kSweepConfigs); ++ci) {
    std::fprintf(f, "%s\"%s\"", ci == 0 ? "" : ", ", kSweepConfigs[ci]);
  }
  std::fprintf(f, "],\n  \"points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    std::fprintf(f, "    {\"shape\": \"%s\", \"flows\": %lld, \"seconds\": {",
                 points[i].shape, static_cast<long long>(points[i].flows));
    for (size_t ci = 0; ci < std::size(kSweepConfigs); ++ci) {
      std::fprintf(f, "%s\"%s\": %.6f", ci == 0 ? "" : ", ", kSweepConfigs[ci],
                   points[i].seconds[ci]);
    }
    std::fprintf(f, "}, \"cpu_seconds\": {");
    for (size_t ci = 0; ci < std::size(kSweepConfigs); ++ci) {
      std::fprintf(f, "%s\"%s\": %.6f", ci == 0 ? "" : ", ", kSweepConfigs[ci],
                   points[i].cpu_seconds[ci]);
    }
    std::fprintf(f, "}}%s\n", i + 1 == points.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n  \"large_points\": [\n");
  for (size_t i = 0; i < result.large.size(); ++i) {
    const LargePoint& p = result.large[i];
    std::fprintf(f,
                 "    {\"flows\": %lld, \"seconds\": %.6f, \"cpu_seconds\": %.6f, "
                 "\"events\": %lld}%s\n",
                 static_cast<long long>(p.flows), p.seconds, p.cpu_seconds,
                 static_cast<long long>(p.events), i + 1 == result.large.size() ? "" : ",");
  }
  std::fprintf(f,
               "  ],\n  \"telemetry_overhead\": {\"flows\": %lld, "
               "\"off_cpu_seconds\": %.6f, \"on_cpu_seconds\": %.6f, \"ratio\": %.6f}\n}\n",
               static_cast<long long>(result.overhead.flows), result.overhead.off_cpu_seconds,
               result.overhead.on_cpu_seconds, result.overhead.ratio);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace bds

int main(int argc, char** argv) {
  bool smoke = false;
  bool large_only = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--large-only") == 0) {
      large_only = true;
    } else if (std::strcmp(argv[i], "--sweep-only") == 0) {
      // Accepted for regression-tool symmetry; both families are part of the
      // sweep, so this is a no-op.
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }
  bds::SweepResult result = bds::RunSweep(smoke, large_only);
  if (!json_path.empty()) {
    bds::WriteSweepJson(result, smoke, json_path);
  }
  return 0;
}

// Regenerates Figure 12:
//  12a — blocks delivered per cycle under an agent failure (cycle 10) and a
//        full controller outage (cycles 20-30, decentralized fallback);
//  12b — per-DC completion time with 2 MB vs 64 MB blocks (paper: 2 MB is
//        1.5-2x faster);
//  12c — completion time vs update-cycle length 0.5-95 s (paper: knee at 3 s).
//
// Extended with the injected-fault subsystem (src/fault):
//  link faults — a WAN link hard-down mid-run: crossing transfers are killed,
//        fully-arrived blocks credited, and the next cycles re-plan the rest
//        over surviving paths;
//  chaos soak — one row per seed of randomized combined faults, asserting the
//        run completes, credits exactly once, and reproduces its fingerprint.
// Exits non-zero when a computed shape check (12a, 12b) reads VIOLATED; 12c's
// cells fold wall-clock decision latency into the simulation, so it prints
// its expected shape unchecked.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/service.h"
#include "src/topology/builders.h"

namespace bds {
namespace {

std::unique_ptr<BdsService> MakeService(BdsOptions options, int dcs = 4, int servers = 4,
                                        Rate nic = MBps(20.0)) {
  GeoTopologyOptions topo_options;
  topo_options.num_dcs = dcs;
  topo_options.servers_per_dc = servers;
  topo_options.server_up = nic;
  topo_options.server_down = nic;
  topo_options.wan_capacity = Gbps(8.0);
  Topology topo = BuildGeoTopology(topo_options).value();
  return BdsService::Create(std::move(topo), options).value();
}

bool Fig12a() {
  bench::PrintHeader("Figure 12a", "blocks delivered per cycle under failures",
                     "agent fails at cycle 10; controller down cycles 20-30 "
                     "(paper: same script; fallback = decentralized protocol)");
  BdsOptions options;
  options.cycle_length = 1.0;
  auto service = MakeService(options);
  BDS_CHECK(service->CreateJob(0, {1, 2, 3}, GB(1.6)).ok());
  // Failure script in cycle units (1 s cycles).
  ServerId victim = service->topology().ServersIn(1)[0];
  BDS_CHECK(service->InjectServerFailure(victim, 10.0).ok());
  BDS_CHECK(service->InjectControllerOutage(20.0, 30.0).ok());
  auto report = service->Run(Hours(1.0));
  BDS_CHECK(report.ok());

  AsciiTable table({"cycle", "mode", "blocks delivered"});
  for (const CycleStats& c : report->cycles) {
    if (c.cycle > 45) {
      break;
    }
    std::string note = c.controller_up ? "centralized" : "fallback";
    if (c.cycle == 10) {
      note += " (agent fails)";
    }
    if (c.cycle == 20) {
      note += " (controller fails)";
    }
    if (c.cycle == 30) {
      note += " (controller back)";
    }
    table.AddRow({std::to_string(c.cycle), note, std::to_string(c.blocks_delivered)});
  }
  table.Print();

  auto mean_delivered = [&](int64_t from, int64_t to) {
    int64_t sum = 0;
    int64_t n = 0;
    for (const CycleStats& c : report->cycles) {
      if (c.cycle >= from && c.cycle < to) {
        sum += c.blocks_delivered;
        ++n;
      }
    }
    return n > 0 ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
  };
  std::printf("mean deliveries/cycle: normal %.1f | after agent failure %.1f | "
              "fallback %.1f | recovered %.1f\n",
              mean_delivered(0, 10), mean_delivered(11, 20), mean_delivered(20, 30),
              mean_delivered(30, 45));
  // Fallback degrades gracefully: every cycle run without the controller
  // still delivers. Recovery finishes the job: every destination server but
  // the failed one (which never comes back, so the run stops wedged on its
  // shard) ends up holding every block, the last of them after the
  // controller returns at 30 s.
  int64_t fallback_cycles = 0;
  bool holds = true;
  for (const CycleStats& c : report->cycles) {
    if (!c.controller_up) {
      ++fallback_cycles;
      holds = holds && c.blocks_delivered > 0;
    }
  }
  size_t live_dests = 0;
  for (DcId d : {1, 2, 3}) {
    live_dests += service->topology().ServersIn(d).size();
  }
  --live_dests;  // The victim.
  SimTime last_done = 0.0;
  size_t live_done = 0;
  for (const auto& [server, t] : report->server_completion) {
    if (server != victim) {
      ++live_done;
      last_done = std::max(last_done, t);
    }
  }
  holds = holds && fallback_cycles > 0 && live_done == live_dests && last_done >= 30.0;
  std::printf("run: completed=%s, stopped %s at %.1f s\n", report->completed ? "yes" : "no",
              StopReasonName(report->stop_reason), report->completion_time);
  std::printf("live destination servers done: %zu of %zu, the last at %.1f s\n", live_done,
              live_dests, last_done);
  std::printf("shape check: every fallback cycle delivers > 0 blocks (%lld cycles) and the "
              "job completes on every live server after the controller returns -> %s\n",
              static_cast<long long>(fallback_cycles), holds ? "holds" : "VIOLATED");
  return holds;
}

bool Fig12b() {
  bench::PrintHeader("Figure 12b", "per-DC completion time: 2 MB vs 64 MB blocks",
                     "1.6 GB to 9 destination DCs (paper: 2 MB blocks 1.5-2x faster)");
  AsciiTable table({"destination DC", "2 MB/blk (m)", "64 MB/blk (m)", "ratio"});
  std::vector<double> small_times;
  std::vector<double> big_times;
  for (Bytes block : {MB(2.0), MB(64.0)}) {
    BdsOptions options;
    options.block_size = block;
    options.cycle_length = 3.0;
    auto service = MakeService(options, /*dcs=*/10, /*servers=*/4);
    std::vector<DcId> dests;
    for (DcId d = 1; d < 10; ++d) {
      dests.push_back(d);
    }
    BDS_CHECK(service->CreateJob(0, dests, GB(1.6)).ok());
    auto report = service->Run(Hours(4.0));
    BDS_CHECK(report.ok() && report->completed);
    auto& out = block == MB(2.0) ? small_times : big_times;
    for (DcId d = 1; d < 10; ++d) {
      out.push_back(ToMinutes(report->dc_completion.at(d)));
    }
  }
  bool holds = true;
  for (size_t i = 0; i < small_times.size(); ++i) {
    holds = holds && small_times[i] < big_times[i];
    table.AddRow({"dc" + std::to_string(i + 1), AsciiTable::Num(small_times[i], 1),
                  AsciiTable::Num(big_times[i], 1),
                  AsciiTable::Num(big_times[i] / small_times[i], 2) + "x"});
  }
  table.Print();
  std::printf("shape check: 2 MB blocks finish before 64 MB blocks at every destination DC "
              "-> %s\n",
              holds ? "holds" : "VIOLATED");
  return holds;
}

void Fig12c() {
  bench::PrintHeader("Figure 12c", "completion time vs update-cycle length",
                     "one 1.6 GB fan-out per cycle length, control-plane latency charged "
                     "(paper: 0.5-95 s sweep; benefit flattens below ~3 s)");
  AsciiTable table({"cycle length (s)", "completion (m)"});
  for (double cycle : {0.5, 1.0, 3.0, 10.0, 30.0, 60.0, 95.0}) {
    BdsOptions options;
    options.cycle_length = cycle;
    options.model_decision_latency = true;  // Updating too often costs overhead.
    auto service = MakeService(options);
    BDS_CHECK(service->CreateJob(0, {1, 2, 3}, GB(1.6)).ok());
    auto report = service->Run(Hours(12.0));
    BDS_CHECK(report.ok() && report->completed);
    table.AddRow({AsciiTable::Num(cycle, 1), AsciiTable::Num(ToMinutes(report->completion_time), 2)});
  }
  table.Print();
  std::printf("shape check: completion grows with cycle length; gains diminish below ~3 s\n");
}

void LinkFaultReplan() {
  bench::PrintHeader("Link faults", "hard WAN link-down mid-run, re-plan over surviving paths",
                     "one WAN link dies for 20 s; crossing transfers are killed and their "
                     "remaining blocks rescheduled (§5.3 extended to the network)");
  BdsOptions options;
  options.cycle_length = 1.0;
  options.validate_invariants = true;
  auto service = MakeService(options);
  BDS_CHECK(service->CreateJob(0, {1, 2, 3}, GB(1.6)).ok());
  // Pick the first WAN link out of the source DC: the busiest one.
  LinkId wan = kInvalidLink;
  for (const Link& l : service->topology().links()) {
    if (l.type == LinkType::kWan && l.src_dc == 0) {
      wan = l.id;
      break;
    }
  }
  BDS_CHECK(wan != kInvalidLink);
  FaultInjector* fault = service->mutable_fault_injector();
  BDS_CHECK(fault->AddLinkDown(service->topology(), wan, 10.0, 30.0).ok());
  auto report = service->Run(Hours(1.0));
  BDS_CHECK(report.ok() && report->completed);

  AsciiTable table({"cycle", "link state", "transfers started", "blocks delivered"});
  for (const CycleStats& c : report->cycles) {
    if (c.cycle > 40) {
      break;
    }
    std::string state = c.start_time >= 10.0 && c.start_time < 30.0 ? "DOWN" : "up";
    table.AddRow({std::to_string(c.cycle), state, std::to_string(c.transfers_started),
                  std::to_string(c.blocks_delivered)});
  }
  table.Print();
  std::printf("transfers killed by the link-down: %lld; worst link overshoot: %.2e\n",
              static_cast<long long>(report->faults.flows_killed),
              report->max_link_overshoot.value_or(-1.0));
  std::printf("shape check: deliveries continue through the outage (surviving paths carry "
              "the re-planned transfers) and no link ever exceeds its faulted capacity\n");
}

void ChaosSoak() {
  bench::PrintHeader("Chaos soak", "randomized combined faults, one row per seed",
                     "link downs/degradations/flaps + lossy control plane + block "
                     "corruption + a controller outage; every run must complete, credit "
                     "exactly once, and reproduce its fingerprint");
  AsciiTable table({"seed", "chaos drawn", "done", "completion (m)", "killed", "corrupt",
                    "redundant", "fingerprint"});
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    BdsOptions options;
    options.cycle_length = 1.0;
    options.validate_invariants = true;
    options.seed = seed;
    auto service = MakeService(options);
    BDS_CHECK(service->CreateJob(0, {1, 2, 3}, MB(400.0)).ok());
    auto plan = service->InstallChaos(seed);
    BDS_CHECK(plan.ok());
    auto report = service->Run(Hours(2.0));
    BDS_CHECK(report.ok());
    BDS_CHECK(report->completed);
    BDS_CHECK(report->max_link_overshoot.has_value());
    BDS_CHECK(*report->max_link_overshoot <= 1e-4);
    const ReplicaState& state = service->mutable_controller()->state();
    BDS_CHECK(state.total_credited() == 200 * 3);  // 400 MB / 2 MB x 3 dest DCs.
    char fp[20];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(report->Fingerprint()));
    table.AddRow({std::to_string(seed), plan->description,
                  report->completed ? "yes" : "NO",
                  AsciiTable::Num(ToMinutes(report->completion_time), 2),
                  std::to_string(report->faults.flows_killed),
                  std::to_string(report->faults.blocks_corrupted),
                  std::to_string(state.redundant_deliveries()), fp});
  }
  table.Print();
  std::printf("shape check: every seed completes with exactly-once crediting; rerun the "
              "binary and the fingerprints must not change\n");
}

bool Run() {
  const bool fallback = Fig12a();
  const bool block_size = Fig12b();
  Fig12c();
  LinkFaultReplan();
  ChaosSoak();
  return fallback && block_size;
}

}  // namespace
}  // namespace bds

int main() {
  // Non-zero when the figure's shape check fails (ctest label paper-shape).
  return bds::Run() ? 0 : 1;
}

// Regenerates Figure 5: the CDF of per-server completion times under the
// decentralized receiver-driven protocol (Gingko) versus the ideal solution,
// for the §2.3 experiment — a 30 GB file from one DC to two destination DCs
// of 640 servers at 20 Mbps each.
//
// Paper: ideal 41 minutes; decentralized average 195 minutes (4.75x);
// 5 % of servers beyond 250 minutes.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/baselines/gingko.h"
#include "src/baselines/ideal.h"
#include "src/core/service.h"
#include "src/topology/builders.h"

namespace bds {
namespace {

bool Run() {
  // Scaled 5x: 128 servers per DC and 6 GB keep the per-server shard and
  // NIC ratio identical to the paper (48 MB per server at 20 Mbps).
  const int kServers = 128;
  const Bytes kSize = GB(6.0);
  auto topo = BuildGingkoExperiment(/*num_dest_dcs=*/2, kServers, Mbps(20.0), Gbps(10.0)).value();
  auto routing = WanRoutingTable::Build(topo, 3).value();
  MulticastJob job = MakeJob(0, 0, {1, 2}, kSize, MB(2.0)).value();

  double ideal_minutes = ToMinutes(IdealCompletionBound(topo, job));

  GingkoStrategy gingko;
  auto result = gingko.Run(topo, routing, job, /*seed=*/2018, Hours(24.0));
  BDS_CHECK(result.ok());

  EmpiricalDistribution dist;
  dist.AddAll(result->ServerCompletionMinutes());

  bench::PrintHeader("Figure 5", "per-server completion: decentralized vs ideal",
                     "2 dest DCs x 128 servers @ 20 Mbps, 6 GB (paper: 640 servers, 30 GB; "
                     "per-server shard and NIC ratios preserved)");
  bench::PrintCdf("completion time (m)", dist, 12);

  double mean = dist.Mean();
  std::printf("ideal solution:        %.1f m\n", ideal_minutes);
  std::printf("decentralized mean:    %.1f m  (%.2fx ideal; paper: 4.75x)\n", mean,
              mean / ideal_minutes);
  std::printf("decentralized p95:     %.1f m  (paper tail: 5%% beyond 250 m = 6.1x ideal)\n",
              dist.Quantile(0.95));
  const bool holds = mean > 1.5 * ideal_minutes;
  std::printf("shape check: decentralized mean >> ideal -> %s\n", holds ? "holds" : "VIOLATED");

  // For contrast (not in the figure): BDS on the identical setup.
  BdsOptions options;
  BdsStrategy bds(options);
  auto bds_result = bds.Run(topo, routing, job, 2018, Hours(24.0));
  if (bds_result.ok() && bds_result->completed) {
    EmpiricalDistribution bdist;
    bdist.AddAll(bds_result->ServerCompletionMinutes());
    std::printf("(BDS on the same setup: mean %.1f m = %.2fx ideal)\n", bdist.Mean(),
                bdist.Mean() / ideal_minutes);
  }
  return holds;
}

}  // namespace
}  // namespace bds

int main() {
  // Non-zero when the figure's shape check fails (ctest label paper-shape).
  return bds::Run() ? 0 : 1;
}

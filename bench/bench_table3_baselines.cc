// Regenerates Table 3: completion time of BDS vs Bullet vs Akamai in three
// trace-driven setups.
//
// Paper (10 TB -> 11 DCs x 100 servers @ 20 MB/s):        Bullet 28 m,
// Akamai 25 m, BDS 9.41 m. Large-scale (100 TB, 1000 srv): 82 / 87 / 20.33 m.
// Rate-limited (5 MB/s):                                    171 / 138 / 38.25 m.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/baselines/akamai.h"
#include "src/baselines/gingko.h"
#include "src/core/service.h"
#include "src/topology/builders.h"

namespace bds {
namespace {

struct Scenario {
  const char* name;
  int servers_per_dc;
  Bytes size;
  Rate server_rate;
  const char* paper_row;
};

// Returns whether BDS finished strictly faster than both baselines (a
// baseline that did not finish counts as slower).
bool RunScenario(const Scenario& sc, AsciiTable& table) {
  auto topo =
      BuildGingkoExperiment(/*num_dest_dcs=*/10, sc.servers_per_dc, sc.server_rate, Gbps(20.0))
          .value();
  auto routing = WanRoutingTable::Build(topo, 3).value();
  std::vector<DcId> dests;
  for (DcId d = 1; d < topo.num_dcs(); ++d) {
    dests.push_back(d);
  }
  MulticastJob job = MakeJob(0, 0, dests, sc.size, MB(2.0)).value();

  BulletStrategy bullet;
  double bullet_m = bench::RunStrategyMinutes(bullet, topo, routing, job, 3, Hours(48.0));
  AkamaiStrategy akamai;
  double akamai_m = bench::RunStrategyMinutes(akamai, topo, routing, job, 3, Hours(48.0));
  BdsStrategy bds;
  double bds_m = bench::RunStrategyMinutes(bds, topo, routing, job, 3, Hours(48.0));

  auto cell = [](double m) { return m > 0.0 ? AsciiTable::Num(m, 2) + " m" : "dnf"; };
  table.AddRow({sc.name, cell(bullet_m), cell(akamai_m), cell(bds_m), sc.paper_row});
  if (bds_m > 0.0 && bullet_m > 0.0 && akamai_m > 0.0) {
    std::printf("%s: BDS %.1fx faster than Bullet, %.1fx faster than Akamai\n", sc.name,
                bullet_m / bds_m, akamai_m / bds_m);
  }
  auto slower = [bds_m](double m) { return m < 0.0 || m > bds_m; };
  return bds_m > 0.0 && slower(bullet_m) && slower(akamai_m);
}

bool Run() {
  bench::PrintHeader(
      "Table 3", "BDS vs Bullet vs Akamai, trace-driven simulation",
      "10 dest DCs; baseline 32 srv/DC & 3.2 GB, large-scale 64 srv/DC & 12.8 GB, "
      "rate-limit 32 srv/DC @ 5 MB/s & 0.8 GB (paper: 100/1000 servers, 10/100 TB; "
      "bytes-per-NIC ratios preserved)");

  AsciiTable table({"setup", "Bullet", "Akamai", "BDS", "paper (Bullet/Akamai/BDS)"});
  // Paper baseline: 10 TB over 1000 servers at 20 MB/s -> 10 GB per server
  // slot; we keep 100 MB per server NIC-slot at the same 20 MB/s.
  // Evaluate every setup, even after one fails, so the table is complete.
  bool holds = RunScenario({"baseline", 32, GB(3.2), MBps(20.0), "28 / 25 / 9.41 m"}, table);
  holds &= RunScenario({"large scale", 64, GB(12.8), MBps(20.0), "82 / 87 / 20.33 m"}, table);
  holds &= RunScenario({"rate limited", 32, GB(0.8), MBps(5.0), "171 / 138 / 38.25 m"}, table);
  table.Print();
  std::printf("shape check: BDS fastest in every setup -> %s\n", holds ? "holds" : "VIOLATED");
  return holds;
}

}  // namespace
}  // namespace bds

int main() {
  // Non-zero when the table's shape check fails (ctest label paper-shape).
  return bds::Run() ? 0 : 1;
}

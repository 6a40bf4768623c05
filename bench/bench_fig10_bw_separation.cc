// Regenerates Figure 10: with a hard 10 GB/s cap configured for bulk data,
// BDS's actual bulk usage on an inter-DC link stays below the cap for the
// whole transfer while still using most of it.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/service.h"
#include "src/topology/builders.h"

namespace bds {
namespace {

bool Run() {
  // A WAN link fat enough that the 10 GB/s cap (not the link) binds, with
  // servers that could collectively exceed the cap.
  const Rate kCap = GBps(10.0);
  Topology topo = BuildFullMesh(/*num_dcs=*/3, /*servers_per_dc=*/8, GBps(40.0), GBps(4.0),
                                GBps(4.0))
                      .value();

  BdsOptions options;
  options.bulk_rate_cap = kCap;
  options.cycle_length = 1.0;
  options.block_size = MB(64.0);
  auto service = BdsService::Create(std::move(topo), options).value();

  // Track every WAN link leaving the source DC.
  std::vector<LinkId> tracked;
  for (LinkId l = 0; l < service->topology().num_links(); ++l) {
    const Link& link = service->topology().link(l);
    if (link.type == LinkType::kWan && link.src_dc == 0) {
      service->mutable_controller()->mutable_simulator()->TrackLinkUtilization(l);
      tracked.push_back(l);
    }
  }

  BDS_CHECK(service->CreateJob(0, {1, 2}, GB(600.0)).ok());
  auto report = service->Run(Hours(1.0));
  BDS_CHECK(report.ok());

  bench::PrintHeader("Figure 10", "bulk bandwidth usage vs the 10 GB/s upper limit",
                     "600 GB to 2 DCs over 40 GB/s WAN links; 10 GB/s bulk cap "
                     "(paper: production link, 30-minute window)");

  AsciiTable table({"time (m)", "bulk usage (GB/s)", "upper limit (GB/s)"});
  const NetworkSimulator& sim = service->mutable_controller()->simulator();
  double peak = 0.0;
  const TimeSeries* series = sim.LinkUtilizationSeries(tracked[0]);
  BDS_CHECK(series != nullptr);
  const Link& link = service->topology().link(tracked[0]);
  double horizon = report->completion_time;
  for (double t = 0.0; t <= horizon + 1.0; t += std::max(1.0, horizon / 10.0)) {
    auto points = series->Resample(t, t, 1.0);
    double usage_gbps = points.empty() ? 0.0 : points[0].value * link.capacity / 1e9;
    peak = std::max(peak, usage_gbps);
    table.AddRow({AsciiTable::Num(ToMinutes(t), 1), AsciiTable::Num(usage_gbps, 2),
                  AsciiTable::Num(kCap / 1e9, 1)});
  }
  table.Print();
  const bool holds = peak <= kCap / 1e9 + 0.05;
  std::printf("completion: %.1f m; peak bulk usage %.2f GB/s vs cap %.1f GB/s -> %s\n",
              ToMinutes(report->completion_time), peak, kCap / 1e9,
              holds ? "respected (paper: always below)" : "VIOLATED");
  return holds;
}

}  // namespace
}  // namespace bds

int main() {
  // Non-zero when the figure's shape check fails (ctest label paper-shape).
  return bds::Run() ? 0 : 1;
}

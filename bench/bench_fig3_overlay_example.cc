// Regenerates Figure 3 / §2.2's illustrative example: replicating 36 GB from
// DC A to DCs B and C over the topology with a 2 GB/s direct IP route and a
// 6 GB/s -> 3 GB/s relay route through server b.
//
// Paper numbers: direct replication 18 s, simple chain replication 13 s,
// intelligent multicast overlay (BDS) 9 s.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/baselines/chain.h"
#include "src/baselines/gingko.h"
#include "src/core/service.h"
#include "src/topology/builders.h"

namespace bds {
namespace {

bool Run() {
  Figure3Topology fig = BuildFigure3Example();
  auto routing = WanRoutingTable::Build(fig.topo, 3).value();
  MulticastJob job =
      MakeJob(0, fig.dc_a, {fig.dc_b, fig.dc_c}, GB(36.0), /*block_size=*/GB(6.0)).value();

  bench::PrintHeader("Figure 3", "why intelligent overlays win: 36 GB, A -> {B, C}",
                     "exact topology of §2.2 — no scaling");

  AsciiTable table({"strategy", "completion (s)", "paper (s)"});

  DirectStrategy direct;
  auto rd = direct.Run(fig.topo, routing, job, 1, Hours(1.0));
  BDS_CHECK(rd.ok() && rd->completed);
  table.AddRow({"direct replication (b)", AsciiTable::Num(rd->completion_time, 1), "18"});

  ChainStrategy chain;
  auto rc = chain.Run(fig.topo, routing, job, 1, Hours(1.0));
  BDS_CHECK(rc.ok() && rc->completed);
  table.AddRow({"simple chain replication (c)", AsciiTable::Num(rc->completion_time, 1), "13"});

  // The intelligent overlay splits the same 36 GB into fine-grained blocks
  // and uses the direct and relay routes simultaneously (the whole point of
  // BDS, §2.2 example (d)).
  MulticastJob bds_job =
      MakeJob(0, fig.dc_a, {fig.dc_b, fig.dc_c}, GB(36.0), /*block_size=*/MB(512.0)).value();
  BdsOptions options;
  options.block_size = MB(512.0);
  options.cycle_length = 0.5;
  options.safety_threshold = 1.0;  // The example has no online traffic.
  BdsStrategy bds(options);
  auto rb = bds.Run(fig.topo, routing, bds_job, 1, Hours(1.0));
  BDS_CHECK(rb.ok() && rb->completed);
  table.AddRow({"intelligent multicast overlay (d)", AsciiTable::Num(rb->completion_time, 1),
                "9"});

  table.Print();
  const bool holds = rb->completion_time < rc->completion_time &&
                     rc->completion_time < rd->completion_time;
  std::printf("shape check: overlay < chain < direct  ->  %.1f < %.1f < %.1f  (%s)\n",
              rb->completion_time, rc->completion_time, rd->completion_time,
              holds ? "holds" : "VIOLATED");
  return holds;
}

}  // namespace
}  // namespace bds

int main() {
  // Non-zero when the figure's shape check fails (ctest label paper-shape).
  return bds::Run() ? 0 : 1;
}

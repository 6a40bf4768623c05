// Synthesizes inter-DC transfer traces matching the distributions Baidu's
// 7-day dataset exhibits in the paper:
//
//  * Table 1 — multicast is 91.13 % of inter-DC bytes overall; per-app
//    shares from 89.2 % (search indexing) to 99.1 % (DB sync-ups).
//  * Fig 2a — 90 % of multicast transfers reach >= 60 % of DCs; 70 % reach
//    >= 80 % of DCs.
//  * Fig 2b — 60 % of multicast transfers exceed 1 TB; 90 % exceed 50 GB.
//
// These published aggregates fully determine everything the evaluation uses
// from the trace, which is why a synthetic stand-in preserves the
// experiments' behaviour (see DESIGN.md substitution table).

#ifndef BDS_SRC_WORKLOAD_TRACE_GENERATOR_H_
#define BDS_SRC_WORKLOAD_TRACE_GENERATOR_H_

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/workload/job.h"
#include "src/workload/trace.h"

namespace bds {

// One application class contributing traffic to the trace.
struct AppProfile {
  std::string name;
  double weight = 1.0;            // Relative record count.
  double multicast_share = 0.95;  // Target fraction of this app's bytes
                                  // that are multicast (Table 1).
};

// The paper's application mix (Table 1).
std::vector<AppProfile> BaiduAppMix();

struct TraceGeneratorOptions {
  int num_dcs = 30;
  int num_transfers = 1265;          // Multicast transfers in the window.
  double duration = 7.0 * 86400.0;   // Seconds (7 days).
  std::vector<AppProfile> app_mix;   // Defaults to BaiduAppMix() when empty.
  uint64_t seed = 2018;
};

class TraceGenerator {
 public:
  explicit TraceGenerator(TraceGeneratorOptions options);

  // Generates the full trace: multicast transfers plus the point-to-point
  // transfers implied by each app's multicast byte share.
  StatusOr<Trace> Generate();

  // Draws one multicast size from the Fig 2b-calibrated distribution.
  Bytes SampleTransferSize();

  // Draws the number of destination DCs for a multicast transfer from the
  // Fig 2a-calibrated distribution.
  int SampleDestCount();

 private:
  TraceGeneratorOptions options_;
  Rng rng_;
};

// Converts the multicast records of a trace into schedulable jobs (scaling
// sizes by `size_scale` so trace-driven simulation can run at laptop scale;
// 1.0 = paper scale).
std::vector<MulticastJob> JobsFromTrace(const Trace& trace, Bytes block_size,
                                        double size_scale = 1.0);

}  // namespace bds

#endif  // BDS_SRC_WORKLOAD_TRACE_GENERATOR_H_

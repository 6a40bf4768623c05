// User-facing configuration for a BDS deployment. Defaults follow §5.4: 2 MB
// blocks, 3-second update cycles, 20 % of link capacity reserved for
// latency-sensitive traffic (i.e. an 80 % safety threshold).

#ifndef BDS_SRC_CORE_OPTIONS_H_
#define BDS_SRC_CORE_OPTIONS_H_

#include "src/common/types.h"
#include "src/control/controller.h"

namespace bds {

struct BdsOptions {
  // Data plane.
  Bytes block_size = MB(2.0);
  SimTime cycle_length = 3.0;

  // Bandwidth separation (§5.2).
  double safety_threshold = 0.8;
  Rate bulk_rate_cap = 0.0;  // Per-WAN-link hard cap; <= 0 disables.

  // Decision algorithm (§4).
  double fptas_epsilon = 0.1;
  bool merge_subtasks = true;
  bool use_exact_lp = false;  // "Standard LP" ablation mode.
  // Fleet-scale controller parallelism: worker threads for the per-subtask /
  // per-candidate passes, and shards for the selection queue (DESIGN.md
  // "Sharded controller"). Either value may be raised without changing any
  // decision bit.
  int num_threads = 1;
  int num_shards = 1;

  // Control plane.
  DcId controller_dc = 0;
  int controller_replicas = 3;
  // Charge the control-plane feedback loop against each cycle (Fig 12c).
  bool model_decision_latency = false;

  // Check hard invariants (link rates within faulted capacity) every cycle
  // and record the worst violation in the report. Off by default; the chaos
  // soak turns it on.
  bool validate_invariants = false;

  uint64_t seed = 1;
};

// Expands the compact user options into the controller's full option set.
ControllerOptions ToControllerOptions(const BdsOptions& options);

}  // namespace bds

#endif  // BDS_SRC_CORE_OPTIONS_H_

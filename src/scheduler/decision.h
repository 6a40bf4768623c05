// Output of the controller's per-cycle decision logic: the 〈w, f〉 tuples of
// §4.1 in executable form — which blocks move, between which servers, along
// which path, at what rate.

#ifndef BDS_SRC_SCHEDULER_DECISION_H_
#define BDS_SRC_SCHEDULER_DECISION_H_

#include <cstring>
#include <vector>

#include "src/common/types.h"
#include "src/topology/path.h"

namespace bds {

// One scheduled transfer: `blocks` of `job` from src_server to dst_server
// along `path` at `rate`. Blocks sharing (src, dst) are merged into one
// subtask (§5.1), so a decision typically carries many blocks per entry.
struct TransferAssignment {
  JobId job = kInvalidJob;
  std::vector<int64_t> blocks;
  Bytes bytes = 0.0;  // Total payload of `blocks`.
  ServerId src_server = kInvalidServer;
  ServerId dst_server = kInvalidServer;
  ServerPath path;
  Rate rate = 0.0;
};

struct CycleDecision {
  int64_t cycle = 0;
  std::vector<TransferAssignment> transfers;

  // Controller-side instrumentation (Fig 11a / 13a).
  double scheduling_seconds = 0.0;
  double routing_seconds = 0.0;
  int64_t scheduled_blocks = 0;   // Block deliveries picked this cycle.
  int64_t merged_subtasks = 0;    // Commodities after merging.

  // Per-phase CPU time (CLOCK_PROCESS_CPUTIME_ID, so worker-thread time is
  // included): selection, MCF solve (instance build through finalize), and
  // the merge/assembly tail (block-to-path splitting + transfer emission).
  // Like the wall timings above, they are EXCLUDED from Fingerprint().
  double select_cpu_seconds = 0.0;
  double solve_cpu_seconds = 0.0;
  double merge_cpu_seconds = 0.0;

  double total_seconds() const { return scheduling_seconds + routing_seconds; }

  // Order-sensitive digest of everything the agents would act on — the
  // transfers (blocks, endpoints, path, rate) plus the cycle counters.
  // Wall-clock timings are excluded. Used by the determinism tests: the
  // thread-pool and optimization knobs must not change this value.
  uint64_t Fingerprint() const {
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    auto mix = [&h](uint64_t v) {
      h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
      h *= 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 31;
    };
    auto mix_double = [&mix](double v) {
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(v));
      std::memcpy(&bits, &v, sizeof(bits));
      mix(bits);
    };
    mix(static_cast<uint64_t>(cycle));
    mix(static_cast<uint64_t>(scheduled_blocks));
    mix(static_cast<uint64_t>(merged_subtasks));
    mix(static_cast<uint64_t>(transfers.size()));
    for (const TransferAssignment& t : transfers) {
      mix(static_cast<uint64_t>(t.job));
      mix(static_cast<uint64_t>(t.blocks.size()));
      for (int64_t b : t.blocks) {
        mix(static_cast<uint64_t>(b));
      }
      mix_double(t.bytes);
      mix(static_cast<uint64_t>(t.src_server));
      mix(static_cast<uint64_t>(t.dst_server));
      mix(static_cast<uint64_t>(t.path.wan_route_index));
      for (LinkId l : t.path.links) {
        mix(static_cast<uint64_t>(l));
      }
      mix_double(t.rate);
    }
    return h;
  }
};

}  // namespace bds

#endif  // BDS_SRC_SCHEDULER_DECISION_H_

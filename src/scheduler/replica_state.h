// Global view of block replica placement — the state the BDS controller
// pulls from agents every cycle (§5.1 step 1).
//
// Placement model: a job's file is sharded evenly across the servers of each
// DC — block b lives on server ShardIndex(job, b, dc, S) of every DC that
// stores a copy (the paper's pilot stores files "evenly across all these
// 640 servers").
// A destination DC is complete when all of its assigned servers received
// their shard blocks; any server that holds a block can act as an overlay
// relay source for it (store-and-forward).

#ifndef BDS_SRC_SCHEDULER_REPLICA_STATE_H_
#define BDS_SRC_SCHEDULER_REPLICA_STATE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/topology/topology.h"
#include "src/workload/job.h"

namespace bds {

// Deterministic placement rule shared by every component that needs to know
// where a block lives: block `block` of `job` is stored on server index
// ShardIndex(...) within each DC that holds a copy. The hash scatters one
// server's shard across many holders in other DCs — matching real sharded
// storage, and the precondition for the hotspot effects of §2.3.
inline size_t ShardIndex(JobId job, int64_t block, DcId dc, size_t num_servers) {
  uint64_t h = static_cast<uint64_t>(block) * 0x9E3779B97F4A7C15ULL +
               static_cast<uint64_t>(job) * 0xC2B2AE3D27D4EB4FULL +
               static_cast<uint64_t>(dc) * 0x165667B19E3779F9ULL;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 32;
  return static_cast<size_t>(h % num_servers);
}

// One (job, block, destination DC) delivery still owed.
struct PendingDelivery {
  JobId job = kInvalidJob;
  int64_t block = -1;
  DcId dc = kInvalidDc;
  ServerId dest_server = kInvalidServer;  // Fixed by the sharding rule.
  int duplicates = 0;                     // Holders across the network now.
};

class ReplicaState {
 public:
  explicit ReplicaState(const Topology* topo);

  // Registers a job: source DC servers hold their shard blocks; all
  // destination DCs owe all blocks.
  Status AddJob(const MulticastJob& job);

  // Marks `server` as holding (job, block); updates DC presence and
  // outstanding-delivery bookkeeping. Idempotent.
  Status AddReplica(JobId job, int64_t block, ServerId server);

  // Removes a server from every holder set (server failure). Its assigned
  // deliveries become owed again unless another server in its DC holds the
  // block (with fixed sharding this reverts its undelivered shard blocks).
  void RemoveServer(ServerId server);

  // Brings a failed server back (agent restart, §5.3). It returns empty —
  // whatever it held was lost with the failure — and becomes eligible to
  // receive deliveries and act as a source again.
  void RestoreServer(ServerId server);

  bool ServerHasBlock(JobId job, int64_t block, ServerId server) const;
  bool DcHasBlock(JobId job, int64_t block, DcId dc) const;

  // Number of servers currently holding (job, block).
  int DuplicateCount(JobId job, int64_t block) const;

  // Servers holding (job, block), for source selection.
  const std::vector<ServerId>& Holders(JobId job, int64_t block) const;

  // The fixed destination server of (job, block) within `dc`.
  ServerId AssignedServer(JobId job, int64_t block, DcId dc) const;

  // All deliveries still owed, with current duplicate counts.
  std::vector<PendingDelivery> PendingDeliveries() const;
  int64_t num_pending() const { return pending_count_; }

  // Streams every owed delivery in exactly PendingDeliveries() order without
  // materializing the vector — at 10^6 outstanding blocks the copy alone is
  // tens of megabytes. `fn` receives the delivery by coordinates:
  //   fn(job_pos, job, block, dc_pos, dc, duplicates)
  // where job_pos indexes job_ids() and dc_pos indexes job.dest_dcs. The
  // coordinate triple (job_pos, block, dc_pos) is lexicographically
  // increasing across calls, so it doubles as a compact order-preserving
  // stand-in for the pending index; everything PendingDeliveries() reports
  // (dest_server, duplicates) is recomputable from it on demand.
  template <typename Fn>
  void ForEachOwed(Fn&& fn) const {
    for (size_t jp = 0; jp < job_ids_.size(); ++jp) {
      const JobInfo& info = jobs_.find(job_ids_[jp])->second;
      const std::vector<DcId>& dests = info.job.dest_dcs;
      for (int64_t b = 0; b < static_cast<int64_t>(info.blocks.size()); ++b) {
        const BlockInfo& bi = info.blocks[static_cast<size_t>(b)];
        if (bi.dc_owed == 0) {
          continue;
        }
        for (size_t dp = 0; dp < dests.size(); ++dp) {
          if ((bi.dc_owed & (uint64_t{1} << dests[dp])) != 0) {
            fn(jp, info.job, b, dp, dests[dp], static_cast<int>(bi.holders.size()));
          }
        }
      }
    }
  }

  // Range-restricted variants for the parallel candidate build: the owed
  // deliveries of job position `jp` whose block is in [block_begin,
  // block_end), in the same (block, dc_pos) order ForEachOwed visits them.
  // CountOwedInRange prices a range without visiting destinations (one
  // popcount per block), so the controller can prefix-sum the counts into
  // exact slots of the candidate array and fill every range in parallel.
  int64_t CountOwedInRange(size_t jp, int64_t block_begin, int64_t block_end) const {
    const JobInfo& info = jobs_.find(job_ids_[jp])->second;
    const int64_t end =
        std::min<int64_t>(block_end, static_cast<int64_t>(info.blocks.size()));
    int64_t count = 0;
    for (int64_t b = std::max<int64_t>(0, block_begin); b < end; ++b) {
      // dc_owed only ever holds destination-DC bits, so the popcount is the
      // number of dest positions ForEachOwed would visit for this block.
      count += std::popcount(info.blocks[static_cast<size_t>(b)].dc_owed);
    }
    return count;
  }

  template <typename Fn>
  void ForEachOwedInRange(size_t jp, int64_t block_begin, int64_t block_end, Fn&& fn) const {
    const JobInfo& info = jobs_.find(job_ids_[jp])->second;
    const std::vector<DcId>& dests = info.job.dest_dcs;
    const int64_t end =
        std::min<int64_t>(block_end, static_cast<int64_t>(info.blocks.size()));
    for (int64_t b = std::max<int64_t>(0, block_begin); b < end; ++b) {
      const BlockInfo& bi = info.blocks[static_cast<size_t>(b)];
      if (bi.dc_owed == 0) {
        continue;
      }
      for (size_t dp = 0; dp < dests.size(); ++dp) {
        if ((bi.dc_owed & (uint64_t{1} << dests[dp])) != 0) {
          fn(jp, info.job, b, dp, dests[dp], static_cast<int>(bi.holders.size()));
        }
      }
    }
  }

  bool JobComplete(JobId job) const;
  bool AllComplete() const { return pending_count_ == 0; }

  // Outstanding shard blocks a destination server still has to receive
  // (across all jobs). Used to record per-server completion times.
  int64_t OwedByServer(ServerId server) const;

  // Number of destination servers still owed at least one block.
  int64_t NumOwedServers() const;

  // Number of distinct live servers holding at least one block of any job —
  // the universe of possible transfer sources. The scheduler uses it to stop
  // selection as soon as every possible source's upload budget is spent.
  int64_t NumHolderServers() const { return static_cast<int64_t>(held_by_server_.size()); }

  // Whether `server` was removed by RemoveServer (agent failure). Failed
  // servers never hold blocks and cannot receive deliveries.
  bool ServerFailed(ServerId server) const { return failed_servers_.count(server) != 0; }

  // Whether any server is currently failed. The selection hot loop hoists
  // this so the common no-failures cycle skips the per-pop set lookup.
  bool AnyServerFailed() const { return !failed_servers_.empty(); }

  // Position-indexed cursor for the selection hot loop: one hash lookup at
  // construction, then O(1) per-block reads. Results are identical to
  // DuplicateCount()/Holders() for in-range blocks of a live job; the block
  // index must be valid (popped candidates always are — they came from the
  // owed stream). Invalidated by any mutation of the state.
  class JobCursor;
  JobCursor CursorAt(size_t jp) const;

  // Every destination server of every registered job.
  std::vector<ServerId> AllDestinationServers() const;

  const MulticastJob* FindJob(JobId job) const;
  const std::vector<JobId>& job_ids() const { return job_ids_; }

  // Blocks fetched into a DC whose flow source was the job's origin DC,
  // vs. total fetched — the Fig 13c "origin proportion" per destination
  // server. Recorded by NoteDelivery.
  struct ServerOriginStats {
    int64_t from_origin = 0;
    int64_t total = 0;
  };
  // Marks the delivery of (job, block) to dest_server from src_server, and
  // updates both the replica map and origin stats. A delivery of a block the
  // destination already holds (possible when the controller schedules from a
  // stale view) is counted as redundant and changes nothing — a block is
  // never credited twice.
  Status NoteDelivery(JobId job, int64_t block, ServerId src_server, ServerId dest_server);
  const std::unordered_map<ServerId, ServerOriginStats>& origin_stats() const {
    return origin_stats_;
  }

  // Owed deliveries cleared so far (monotone; a server failure re-owing a
  // delivered block does not retract past credits). With no server failures
  // this equals blocks x destination DCs per job when all jobs complete —
  // the soak test's no-double-credit invariant.
  int64_t total_credited() const { return credited_; }

  // NoteDelivery calls whose block the destination already held.
  int64_t redundant_deliveries() const { return redundant_deliveries_; }

  // Drops a fully-delivered job from the state so a long-running service
  // stays O(live work): holder bookkeeping is unwound, the job leaves
  // job_ids() (ForEachOwed stops visiting it — also a per-cycle time win,
  // since the candidate build streams every registered job), and credited_
  // keeps its monotone count. Rejects jobs that still owe deliveries — a
  // server failure can re-owe a previously complete job, in which case the
  // caller retries after it completes again.
  Status RetireJob(JobId job);

  int64_t retired_jobs() const { return retired_jobs_; }
  int64_t retired_blocks() const { return retired_blocks_; }
  int64_t num_live_jobs() const { return static_cast<int64_t>(job_ids_.size()); }

 private:
  // DC sets are 64-bit masks: BDS deployments span 10-30 DCs (the paper's
  // fleet), and AddJob rejects topologies beyond 64.
  struct BlockInfo {
    std::vector<ServerId> holders;
    uint64_t dc_present = 0;  // Bit d: some server in DC d holds the block.
    uint64_t dc_owed = 0;     // Bit d: destination DC d still waiting.
  };
  struct JobInfo {
    MulticastJob job;
    std::vector<BlockInfo> blocks;
    int64_t owed = 0;  // Outstanding (block, dc) deliveries.
  };

  JobInfo* Find(JobId job);
  const JobInfo* Find(JobId job) const;

  const Topology* topo_;
  std::unordered_map<JobId, JobInfo> jobs_;
  std::vector<JobId> job_ids_;
  std::unordered_set<ServerId> failed_servers_;
  std::unordered_map<ServerId, int64_t> owed_by_server_;
  std::unordered_map<ServerId, int64_t> held_by_server_;  // #(job, block) held.
  int64_t pending_count_ = 0;
  int64_t credited_ = 0;
  int64_t redundant_deliveries_ = 0;
  int64_t retired_jobs_ = 0;
  int64_t retired_blocks_ = 0;
  std::unordered_map<ServerId, ServerOriginStats> origin_stats_;
};

class ReplicaState::JobCursor {
 public:
  const MulticastJob& job() const { return info_->job; }
  int duplicate_count(int64_t block) const {
    return static_cast<int>(info_->blocks[static_cast<size_t>(block)].holders.size());
  }
  const std::vector<ServerId>& holders(int64_t block) const {
    return info_->blocks[static_cast<size_t>(block)].holders;
  }

 private:
  friend class ReplicaState;
  explicit JobCursor(const JobInfo* info) : info_(info) {}
  const JobInfo* info_;
};

inline ReplicaState::JobCursor ReplicaState::CursorAt(size_t jp) const {
  return JobCursor(&jobs_.find(job_ids_[jp])->second);
}

}  // namespace bds

#endif  // BDS_SRC_SCHEDULER_REPLICA_STATE_H_

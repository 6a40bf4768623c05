// Controller replication and leader election (§5.3 item 1).
//
// The deployment replicates the controller over three ZooKeeper-coordinated
// replicas; we model the behaviour that matters to the evaluation: a master
// exists while at least one replica is alive (after a failover delay when
// the current master dies), and the system signals "no controller" when all
// replicas are down — at which point agents fall back to the decentralized
// protocol (Fig 12a).

#ifndef BDS_SRC_CONTROL_REPLICATION_H_
#define BDS_SRC_CONTROL_REPLICATION_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace bds {

class ControllerReplicaSet {
 public:
  struct Options {
    int num_replicas = 3;
    // Time for the surviving replicas to elect a new master after the
    // current master dies (lease expiry + election).
    double failover_delay = 2.0;
  };

  explicit ControllerReplicaSet(Options options);
  ControllerReplicaSet() : ControllerReplicaSet(Options{}) {}

  // Marks replica `idx` failed/recovered as of time `t`.
  Status FailReplica(int idx, SimTime t);
  Status RecoverReplica(int idx, SimTime t);

  // Whether a master is serving at time `t` (monotonically queried).
  bool HasMaster(SimTime t);

  // Index of the current master, or -1.
  int MasterIndex(SimTime t);

  int num_replicas() const { return static_cast<int>(alive_.size()); }
  bool alive(int idx) const { return alive_[static_cast<size_t>(idx)]; }
  int64_t elections() const { return elections_; }

 private:
  void MaybeElect(SimTime t);

  Options options_;
  std::vector<bool> alive_;
  int master_ = 0;
  // When a pending election completes; <= t means no election in progress.
  SimTime master_ready_at_ = 0.0;
  int64_t elections_ = 0;
};

}  // namespace bds

#endif  // BDS_SRC_CONTROL_REPLICATION_H_

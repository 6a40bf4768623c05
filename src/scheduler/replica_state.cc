#include "src/scheduler/replica_state.h"

#include <algorithm>

namespace bds {

namespace {
// Free-function twin of AssignedServer usable before `this` bookkeeping
// exists (AddJob runs before the JobInfo is inserted into the map).
ServerId AssignedServerFor(const Topology* topo, JobId job, int64_t block, DcId dc) {
  const auto& servers = topo->ServersIn(dc);
  if (servers.empty()) {
    return kInvalidServer;
  }
  return servers[ShardIndex(job, block, dc, servers.size())];
}
}  // namespace

ReplicaState::ReplicaState(const Topology* topo) : topo_(topo) { BDS_CHECK(topo != nullptr); }

ReplicaState::JobInfo* ReplicaState::Find(JobId job) {
  auto it = jobs_.find(job);
  return it == jobs_.end() ? nullptr : &it->second;
}

const ReplicaState::JobInfo* ReplicaState::Find(JobId job) const {
  auto it = jobs_.find(job);
  return it == jobs_.end() ? nullptr : &it->second;
}

Status ReplicaState::AddJob(const MulticastJob& job) {
  BDS_RETURN_IF_ERROR(job.Validate(topo_->num_dcs()));
  if (jobs_.count(job.id) != 0) {
    return InvalidArgumentError("AddJob: duplicate job id");
  }
  const auto& src_servers = topo_->ServersIn(job.source_dc);
  if (src_servers.empty()) {
    return FailedPreconditionError("AddJob: source DC has no servers");
  }
  for (DcId d : job.dest_dcs) {
    if (topo_->ServersIn(d).empty()) {
      return FailedPreconditionError("AddJob: destination DC has no servers");
    }
  }

  if (topo_->num_dcs() > 64) {
    return InvalidArgumentError("AddJob: ReplicaState supports at most 64 DCs");
  }
  JobInfo info;
  info.job = job;
  int64_t n = job.num_blocks();
  info.blocks.resize(static_cast<size_t>(n));
  for (int64_t b = 0; b < n; ++b) {
    BlockInfo& block = info.blocks[static_cast<size_t>(b)];
    // Sharding rule: block b starts on its assigned source-DC server —
    // unless that server already failed, in which case the block has no
    // holder yet (it is unrecoverable until the server returns).
    ServerId holder = src_servers[ShardIndex(job.id, b, job.source_dc, src_servers.size())];
    if (failed_servers_.count(holder) == 0) {
      block.holders.push_back(holder);
      block.dc_present |= uint64_t{1} << job.source_dc;
      ++held_by_server_[holder];
    }
    for (DcId d : job.dest_dcs) {
      block.dc_owed |= uint64_t{1} << d;
      ++info.owed;
      ++owed_by_server_[AssignedServerFor(topo_, job.id, b, d)];
    }
  }
  pending_count_ += info.owed;
  job_ids_.push_back(job.id);
  jobs_.emplace(job.id, std::move(info));
  return Status::Ok();
}

Status ReplicaState::AddReplica(JobId job, int64_t block, ServerId server) {
  JobInfo* info = Find(job);
  if (info == nullptr) {
    return NotFoundError("AddReplica: no such job");
  }
  if (block < 0 || block >= static_cast<int64_t>(info->blocks.size())) {
    return OutOfRangeError("AddReplica: no such block");
  }
  if (server < 0 || server >= topo_->num_servers()) {
    return InvalidArgumentError("AddReplica: no such server");
  }
  if (failed_servers_.count(server) != 0) {
    return FailedPreconditionError("AddReplica: server has failed");
  }
  BlockInfo& bi = info->blocks[static_cast<size_t>(block)];
  if (std::find(bi.holders.begin(), bi.holders.end(), server) != bi.holders.end()) {
    return Status::Ok();  // Idempotent.
  }
  bi.holders.push_back(server);
  ++held_by_server_[server];
  DcId dc = topo_->server(server).dc;
  bi.dc_present |= uint64_t{1} << dc;
  // The owed delivery for this DC clears only when the *assigned* server
  // has the block (the shard must land where it belongs).
  if ((bi.dc_owed & (uint64_t{1} << dc)) != 0 &&
      server == AssignedServer(job, block, dc)) {
    bi.dc_owed &= ~(uint64_t{1} << dc);
    --info->owed;
    --pending_count_;
    --owed_by_server_[server];
    ++credited_;
  }
  return Status::Ok();
}

Status ReplicaState::NoteDelivery(JobId job, int64_t block, ServerId src_server,
                                  ServerId dest_server) {
  const JobInfo* info = Find(job);
  if (info == nullptr) {
    return NotFoundError("NoteDelivery: no such job");
  }
  if (ServerHasBlock(job, block, dest_server)) {
    ++redundant_deliveries_;
    return Status::Ok();
  }
  BDS_RETURN_IF_ERROR(AddReplica(job, block, dest_server));
  ServerOriginStats& stats = origin_stats_[dest_server];
  ++stats.total;
  if (src_server >= 0 && src_server < topo_->num_servers() &&
      topo_->server(src_server).dc == info->job.source_dc) {
    ++stats.from_origin;
  }
  return Status::Ok();
}

void ReplicaState::RemoveServer(ServerId server) {
  failed_servers_.insert(server);
  held_by_server_.erase(server);  // Loses every replica below.
  DcId dc = (server >= 0 && server < topo_->num_servers()) ? topo_->server(server).dc
                                                           : kInvalidDc;
  for (auto& [id, info] : jobs_) {
    for (int64_t b = 0; b < static_cast<int64_t>(info.blocks.size()); ++b) {
      BlockInfo& bi = info.blocks[static_cast<size_t>(b)];
      auto it = std::find(bi.holders.begin(), bi.holders.end(), server);
      if (it == bi.holders.end()) {
        continue;
      }
      bi.holders.erase(it);
      if (dc == kInvalidDc) {
        continue;
      }
      // Recompute DC presence for the failed server's DC.
      bool still_present = false;
      for (ServerId h : bi.holders) {
        if (topo_->server(h).dc == dc) {
          still_present = true;
          break;
        }
      }
      if (!still_present) {
        bi.dc_present &= ~(uint64_t{1} << dc);
      }
      // If this DC is a destination and the assigned server lost the block,
      // the delivery is owed again.
      bool is_dest = std::find(info.job.dest_dcs.begin(), info.job.dest_dcs.end(), dc) !=
                     info.job.dest_dcs.end();
      if (is_dest && server == AssignedServer(id, b, dc) &&
          (bi.dc_owed & (uint64_t{1} << dc)) == 0) {
        bi.dc_owed |= uint64_t{1} << dc;
        ++info.owed;
        ++pending_count_;
        ++owed_by_server_[server];
      }
    }
  }
}

void ReplicaState::RestoreServer(ServerId server) { failed_servers_.erase(server); }

Status ReplicaState::RetireJob(JobId job) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return NotFoundError("RetireJob: no such job");
  }
  JobInfo& info = it->second;
  if (info.owed != 0) {
    return FailedPreconditionError("RetireJob: job still owes deliveries");
  }
  for (const BlockInfo& bi : info.blocks) {
    for (ServerId h : bi.holders) {
      auto held = held_by_server_.find(h);
      if (held != held_by_server_.end() && --held->second <= 0) {
        held_by_server_.erase(held);
      }
    }
  }
  retired_blocks_ += static_cast<int64_t>(info.blocks.size());
  ++retired_jobs_;
  job_ids_.erase(std::find(job_ids_.begin(), job_ids_.end(), job));
  jobs_.erase(it);
  return Status::Ok();
}

bool ReplicaState::ServerHasBlock(JobId job, int64_t block, ServerId server) const {
  const JobInfo* info = Find(job);
  if (info == nullptr || block < 0 || block >= static_cast<int64_t>(info->blocks.size())) {
    return false;
  }
  const auto& holders = info->blocks[static_cast<size_t>(block)].holders;
  return std::find(holders.begin(), holders.end(), server) != holders.end();
}

bool ReplicaState::DcHasBlock(JobId job, int64_t block, DcId dc) const {
  const JobInfo* info = Find(job);
  if (info == nullptr || block < 0 || block >= static_cast<int64_t>(info->blocks.size())) {
    return false;
  }
  return (info->blocks[static_cast<size_t>(block)].dc_present & (uint64_t{1} << dc)) != 0;
}

int ReplicaState::DuplicateCount(JobId job, int64_t block) const {
  const JobInfo* info = Find(job);
  if (info == nullptr || block < 0 || block >= static_cast<int64_t>(info->blocks.size())) {
    return 0;
  }
  return static_cast<int>(info->blocks[static_cast<size_t>(block)].holders.size());
}

const std::vector<ServerId>& ReplicaState::Holders(JobId job, int64_t block) const {
  static const std::vector<ServerId> kEmpty;
  const JobInfo* info = Find(job);
  if (info == nullptr || block < 0 || block >= static_cast<int64_t>(info->blocks.size())) {
    return kEmpty;
  }
  return info->blocks[static_cast<size_t>(block)].holders;
}

ServerId ReplicaState::AssignedServer(JobId job, int64_t block, DcId dc) const {
  return AssignedServerFor(topo_, job, block, dc);
}

int64_t ReplicaState::OwedByServer(ServerId server) const {
  auto it = owed_by_server_.find(server);
  return it == owed_by_server_.end() ? 0 : it->second;
}

int64_t ReplicaState::NumOwedServers() const {
  int64_t n = 0;
  for (const auto& [server, owed] : owed_by_server_) {
    if (owed > 0) {
      ++n;
    }
  }
  return n;
}

std::vector<ServerId> ReplicaState::AllDestinationServers() const {
  std::unordered_set<ServerId> seen;
  std::vector<ServerId> out;
  for (JobId id : job_ids_) {
    const JobInfo* info = Find(id);
    for (DcId d : info->job.dest_dcs) {
      for (ServerId s : topo_->ServersIn(d)) {
        if (seen.insert(s).second) {
          out.push_back(s);
        }
      }
    }
  }
  return out;
}

std::vector<PendingDelivery> ReplicaState::PendingDeliveries() const {
  std::vector<PendingDelivery> out;
  out.reserve(static_cast<size_t>(pending_count_));
  ForEachOwed([&](size_t, const MulticastJob& job, int64_t b, size_t, DcId d, int dups) {
    PendingDelivery p;
    p.job = job.id;
    p.block = b;
    p.dc = d;
    p.dest_server = AssignedServer(job.id, b, d);
    p.duplicates = dups;
    out.push_back(p);
  });
  return out;
}

bool ReplicaState::JobComplete(JobId job) const {
  const JobInfo* info = Find(job);
  return info != nullptr && info->owed == 0;
}

const MulticastJob* ReplicaState::FindJob(JobId job) const {
  const JobInfo* info = Find(job);
  return info == nullptr ? nullptr : &info->job;
}

}  // namespace bds

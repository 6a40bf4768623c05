#include "tests/oracles.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/status.h"
#include "src/lp/mcf_internal.h"

namespace bds {

int64_t FptasPushLoopReference(const mcf_internal::FlatMcf& flat, double epsilon, double delta,
                               int64_t max_pushes, std::vector<double>& length,
                               std::vector<double>& raw_flow) {
  const std::vector<double>& cap = flat.cap;
  const std::vector<mcf_internal::FlatPath>& paths = flat.paths;
  auto path_length = [&](const mcf_internal::FlatPath& p) {
    double s = 0.0;
    for (int l : p.links) {
      s += length[static_cast<size_t>(l)];
    }
    return s;
  };

  // Fleischer's phase structure [17]: instead of a global shortest-path
  // search per push (Garg-Koenemann), iterate the commodities round-robin
  // against a threshold alpha that grows by (1 + eps) per phase. A
  // commodity keeps pushing along its cheapest path while that path is
  // shorter than min(1, alpha * (1 + eps)); when every commodity's cheapest
  // path reaches 1 the algorithm stops.
  int64_t pushes = 0;
  double alpha = delta * static_cast<double>(flat.max_len);
  while (alpha < 1.0 && pushes < max_pushes) {
    double threshold = std::min(1.0, alpha * (1.0 + epsilon));
    for (size_t c = 0; c < flat.commodity_paths.size() && pushes < max_pushes; ++c) {
      for (;;) {
        // Cheapest of this commodity's paths.
        int best = -1;
        double best_len = threshold;
        for (int pi : flat.commodity_paths[c]) {
          double len = path_length(paths[static_cast<size_t>(pi)]);
          if (len < best_len) {
            best_len = len;
            best = pi;
          }
        }
        if (best < 0) {
          break;  // Nothing under the threshold; next commodity.
        }
        const mcf_internal::FlatPath& p = paths[static_cast<size_t>(best)];
        double bottleneck = std::numeric_limits<double>::infinity();
        for (int l : p.links) {
          bottleneck = std::min(bottleneck, cap[static_cast<size_t>(l)]);
        }
        raw_flow[static_cast<size_t>(best)] += bottleneck;
        for (int l : p.links) {
          length[static_cast<size_t>(l)] *=
              1.0 + epsilon * bottleneck / cap[static_cast<size_t>(l)];
        }
        if (++pushes >= max_pushes) {
          break;
        }
      }
    }
    alpha *= 1.0 + epsilon;
  }
  return pushes;
}

McfResult SolveMcfFptasReference(const McfInstance& instance, double epsilon) {
  BDS_CHECK_MSG(epsilon > 0.0 && epsilon <= 0.5, "epsilon must be in (0, 0.5]");
  McfResult result = mcf_internal::MakeEmptyFptasResult(instance);
  const mcf_internal::FlatMcf flat = mcf_internal::FlattenMcf(instance);
  result.ok = true;
  if (flat.paths.empty()) {
    return result;  // Nothing can flow.
  }

  const size_t num_edges = flat.num_edges();
  const double delta = mcf_internal::FptasDelta(flat, epsilon);
  std::vector<double> length(num_edges);
  for (size_t l = 0; l < num_edges; ++l) {
    length[l] = delta / flat.cap[l];
  }
  std::vector<double> raw_flow(flat.paths.size(), 0.0);
  FptasPushLoopReference(flat, epsilon, delta, mcf_internal::MaxPushes(flat, epsilon, delta),
                         length, raw_flow);
  mcf_internal::FinalizeFptas(flat, epsilon, delta, raw_flow, result);
  return result;
}

void AllocatePinnedReference(const std::vector<Rate>& capacities, size_t n,
                             const int32_t* offsets, const LinkId* links, const Rate* pinned,
                             Rate* rate) {
  std::vector<size_t> used_links;
  std::vector<char> used(capacities.size(), 0);
  std::vector<size_t> pinned_flows;
  for (size_t fi = 0; fi < n; ++fi) {
    rate[fi] = 0.0;
    if (!(pinned[fi] > 0.0)) {
      continue;  // Fair flows are phase 2's business.
    }
    rate[fi] = pinned[fi];
    pinned_flows.push_back(fi);
    for (int32_t i = offsets[fi]; i < offsets[fi + 1]; ++i) {
      size_t l = static_cast<size_t>(links[i]);
      if (!used[l]) {
        used[l] = 1;
        used_links.push_back(l);
      }
    }
  }
  // Ascending link order: the first of equally oversubscribed links wins.
  std::sort(used_links.begin(), used_links.end());

  // Fixed point: find the worst oversubscription factor and shrink the flows
  // on that link, re-summing every load from scratch each round. Each round
  // permanently satisfies one link, so this ends within used_links rounds.
  std::vector<Rate> load(capacities.size(), 0.0);
  for (size_t round = 0; round < used_links.size() + 1; ++round) {
    for (size_t l : used_links) {
      load[l] = 0.0;
    }
    for (size_t fi : pinned_flows) {
      for (int32_t i = offsets[fi]; i < offsets[fi + 1]; ++i) {
        load[static_cast<size_t>(links[i])] += rate[fi];
      }
    }
    double worst_factor = 1.0;
    size_t worst_link = capacities.size();
    for (size_t l : used_links) {
      const Rate residual = std::max(0.0, capacities[l]);
      if (load[l] > residual * (1.0 + kFluidEpsilon) && load[l] > 0.0) {
        double factor = residual / load[l];
        if (factor < worst_factor) {
          worst_factor = factor;
          worst_link = l;
        }
      }
    }
    if (worst_link == capacities.size()) {
      break;  // Feasible.
    }
    for (size_t fi : pinned_flows) {
      for (int32_t i = offsets[fi]; i < offsets[fi + 1]; ++i) {
        if (static_cast<size_t>(links[i]) == worst_link) {
          rate[fi] *= worst_factor;
          break;
        }
      }
    }
  }
}

void AllocateReference(const std::vector<Rate>& capacities, std::vector<Flow*>& flows) {
  size_t num_links = capacities.size();
  std::vector<Rate> residual(num_links, 0.0);
  for (size_t l = 0; l < num_links; ++l) {
    residual[l] = std::max(0.0, capacities[l]);
  }

  // --- Phase 1: pinned flows, solved by the pinned-phase reference. ---
  std::vector<Flow*> pinned;
  std::vector<Flow*> fair;
  for (Flow* f : flows) {
    f->current_rate = 0.0;
    if (f->completed()) {
      continue;
    }
    (f->pinned() ? pinned : fair).push_back(f);
  }

  if (!pinned.empty()) {
    std::vector<int32_t> offsets{0};
    std::vector<LinkId> links;
    std::vector<Rate> pins;
    for (const Flow* f : pinned) {
      links.insert(links.end(), f->links.begin(), f->links.end());
      offsets.push_back(static_cast<int32_t>(links.size()));
      pins.push_back(f->pinned_rate);
    }
    std::vector<Rate> rate(pinned.size());
    AllocatePinnedReference(capacities, pinned.size(), offsets.data(), links.data(),
                            pins.data(), rate.data());
    for (size_t i = 0; i < pinned.size(); ++i) {
      pinned[i]->current_rate = rate[i];
    }
    // Subtract the pinned load from the residual available to fair flows.
    for (Flow* f : pinned) {
      for (LinkId l : f->links) {
        residual[static_cast<size_t>(l)] =
            std::max(0.0, residual[static_cast<size_t>(l)] - f->current_rate);
      }
    }
  }

  // --- Phase 2: max-min fair filling for unpinned flows. ---
  if (fair.empty()) {
    return;
  }
  std::vector<int> active_count(num_links, 0);
  std::vector<char> link_saturated(num_links, 0);
  std::vector<char> frozen(fair.size(), 0);
  std::vector<size_t> used_links;
  for (Flow* f : fair) {
    for (LinkId l : f->links) {
      if (active_count[static_cast<size_t>(l)]++ == 0) {
        used_links.push_back(static_cast<size_t>(l));
      }
    }
  }

  size_t remaining_flows = fair.size();
  // Each round saturates at least one used link (or freezes all flows).
  for (size_t round = 0; round < used_links.size() + 1 && remaining_flows > 0; ++round) {
    // Largest uniform increment every active flow can take.
    double inc = std::numeric_limits<double>::infinity();
    for (size_t l : used_links) {
      if (active_count[l] > 0 && !link_saturated[l]) {
        inc = std::min(inc, residual[l] / active_count[l]);
      }
    }
    if (!std::isfinite(inc)) {
      break;  // No capacity constraint binds (shouldn't happen in practice).
    }
    for (size_t i = 0; i < fair.size(); ++i) {
      if (!frozen[i]) {
        fair[i]->current_rate += inc;
      }
    }
    for (size_t l : used_links) {
      if (active_count[l] > 0 && !link_saturated[l]) {
        residual[l] -= inc * active_count[l];
        if (residual[l] <= kFluidEpsilon * std::max(1.0, capacities[l])) {
          link_saturated[l] = 1;
        }
      }
    }
    // Freeze flows crossing newly saturated links.
    for (size_t i = 0; i < fair.size(); ++i) {
      if (frozen[i]) {
        continue;
      }
      bool hit = false;
      for (LinkId l : fair[i]->links) {
        if (link_saturated[static_cast<size_t>(l)]) {
          hit = true;
          break;
        }
      }
      if (hit) {
        frozen[i] = 1;
        --remaining_flows;
        for (LinkId l : fair[i]->links) {
          --active_count[static_cast<size_t>(l)];
        }
      }
    }
  }
}

ReferenceSimulator::ReferenceSimulator(const Topology* topo)
    : topo_(topo),
      fault_factor_(static_cast<size_t>(topo->num_links()), 1.0),
      background_(static_cast<size_t>(topo->num_links()), 0.0),
      link_rate_(static_cast<size_t>(topo->num_links()), 0.0),
      link_flows_(static_cast<size_t>(topo->num_links()), 0) {}

StatusOr<FlowId> ReferenceSimulator::StartFlow(std::vector<LinkId> links, Bytes bytes,
                                               Rate pinned_rate, int64_t tag, int64_t tag2) {
  if (links.empty()) {
    return InvalidArgumentError("StartFlow: empty link list");
  }
  for (size_t i = 0; i < links.size(); ++i) {
    if (links[i] < 0 || links[i] >= topo_->num_links()) {
      return InvalidArgumentError("StartFlow: bad link id");
    }
    if (std::find(links.begin(), links.begin() + static_cast<int64_t>(i), links[i]) !=
        links.begin() + static_cast<int64_t>(i)) {
      return InvalidArgumentError("StartFlow: path repeats a link");
    }
  }
  if (bytes <= 0.0) {
    return InvalidArgumentError("StartFlow: bytes must be positive");
  }
  if (pinned_rate < 0.0) {
    return InvalidArgumentError("StartFlow: negative pinned rate");
  }
  const FlowId id = next_id_++;
  Flow f;
  f.id = id;
  f.links = std::move(links);
  f.total_bytes = bytes;
  f.remaining = bytes;
  f.anchor_time = now_;
  f.pinned_rate = pinned_rate;
  f.start_time = now_;
  f.tag = tag;
  f.tag2 = tag2;
  for (LinkId l : f.links) {
    ++link_flows_[static_cast<size_t>(l)];
  }
  flows_.emplace(id, std::move(f));
  dirty_ = true;
  return id;
}

StatusOr<Bytes> ReferenceSimulator::CancelFlow(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) {
    return NotFoundError("CancelFlow: no such active flow");
  }
  const Bytes delivered = it->second.total_bytes - it->second.RemainingAt(now_);
  Detach(it->second);
  flows_.erase(it);
  return delivered;
}

const Flow* ReferenceSimulator::FindFlow(FlowId id) const {
  auto it = flows_.find(id);
  return it == flows_.end() ? nullptr : &it->second;
}

Status ReferenceSimulator::SetLinkFaultFactor(LinkId link, double factor) {
  if (link < 0 || link >= topo_->num_links()) {
    return InvalidArgumentError("SetLinkFaultFactor: bad link");
  }
  if (factor < 0.0 || factor > 1.0) {
    return InvalidArgumentError("SetLinkFaultFactor: factor must be in [0, 1]");
  }
  fault_factor_[static_cast<size_t>(link)] = factor;
  dirty_ = true;
  return Status::Ok();
}

Status ReferenceSimulator::SetBackgroundRate(LinkId link, Rate rate) {
  if (link < 0 || link >= topo_->num_links()) {
    return InvalidArgumentError("SetBackgroundRate: bad link");
  }
  if (rate < 0.0) {
    return InvalidArgumentError("SetBackgroundRate: negative rate");
  }
  background_[static_cast<size_t>(link)] = rate;
  dirty_ = true;
  return Status::Ok();
}

std::vector<Rate> ReferenceSimulator::UsableCapacities() const {
  std::vector<Rate> usable(link_rate_.size());
  for (size_t l = 0; l < usable.size(); ++l) {
    usable[l] = std::max(0.0, topo_->link(static_cast<LinkId>(l)).capacity * fault_factor_[l] -
                                  background_[l]);
  }
  return usable;
}

double ReferenceSimulator::MaxCapacityViolation() const {
  const std::vector<Rate> usable = UsableCapacities();
  double worst = -kTimeInfinity;
  bool any = false;
  for (size_t l = 0; l < usable.size(); ++l) {
    const Rate nominal = topo_->link(static_cast<LinkId>(l)).capacity;
    if (nominal > 0.0) {
      any = true;
      worst = std::max(worst, (link_rate_[l] - usable[l]) / nominal);
    }
  }
  return any ? worst : 0.0;
}

void ReferenceSimulator::Reallocate() {
  // Union-find over links: flows that share a link are one component.
  std::vector<size_t> parent(link_rate_.size());
  for (size_t l = 0; l < parent.size(); ++l) {
    parent[l] = l;
  }
  auto root = [&parent](size_t l) {
    while (parent[l] != l) {
      l = parent[l] = parent[parent[l]];
    }
    return l;
  };
  for (const auto& [id, f] : flows_) {
    for (LinkId l : f.links) {
      parent[root(static_cast<size_t>(l))] = root(static_cast<size_t>(f.links[0]));
    }
  }
  std::vector<std::vector<Flow*>> components(parent.size());
  for (auto& [id, f] : flows_) {
    components[root(static_cast<size_t>(f.links[0]))].push_back(&f);  // Ascending ids.
  }
  const std::vector<Rate> capacities = UsableCapacities();
  for (const std::vector<Flow*>& members : components) {
    if (members.empty()) {
      continue;
    }
    std::vector<int32_t> offsets{0};
    std::vector<LinkId> links;
    std::vector<Rate> pinned;
    for (const Flow* f : members) {
      links.insert(links.end(), f->links.begin(), f->links.end());
      offsets.push_back(static_cast<int32_t>(links.size()));
      pinned.push_back(f->pinned_rate);
    }
    std::vector<Rate> rate(members.size());
    allocator_.AllocateSubset(capacities, members.size(), offsets.data(), links.data(),
                              pinned.data(), rate.data());
    ++num_reallocations_;
    for (size_t i = 0; i < members.size(); ++i) {
      Flow& f = *members[i];
      if (rate[i] == f.current_rate) {
        continue;
      }
      f.remaining = f.RemainingAt(now_);
      f.anchor_time = now_;
      for (LinkId l : f.links) {
        link_rate_[static_cast<size_t>(l)] += rate[i] - f.current_rate;
      }
      f.current_rate = rate[i];
    }
  }
  dirty_ = false;
}

void ReferenceSimulator::Detach(const Flow& f) {
  for (LinkId l : f.links) {
    const size_t li = static_cast<size_t>(l);
    link_rate_[li] -= f.current_rate;
    if (--link_flows_[li] == 0) {
      link_rate_[li] = 0.0;  // No drift survives on a drained link.
    }
  }
  dirty_ = true;
}

SimTime ReferenceSimulator::NextCompletionTime() const {
  SimTime best = kTimeInfinity;
  for (const auto& [id, f] : flows_) {
    if (f.current_rate > 0.0) {
      best = std::min(best, f.anchor_time + f.remaining / f.current_rate);
    }
  }
  return best;
}

void ReferenceSimulator::CompleteBatch(SimTime t) {
  std::vector<FlowRecord> batch;
  for (auto it = flows_.begin(); it != flows_.end();) {
    const Flow& f = it->second;
    if (f.current_rate > 0.0 && f.anchor_time + f.remaining / f.current_rate == t) {
      batch.push_back(FlowRecord{f.id, f.total_bytes, f.start_time, t, f.tag, f.tag2});
      Detach(f);
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  BDS_CHECK(!batch.empty());
  ++num_events_;
  if (on_complete_) {
    for (const FlowRecord& r : batch) {
      on_complete_(r);
    }
  }
}

Status ReferenceSimulator::AdvanceTo(SimTime t) {
  if (t < now_ - kFluidEpsilon) {
    return InvalidArgumentError("AdvanceTo: time went backwards");
  }
  t = std::max(t, now_);
  for (;;) {
    if (dirty_) {
      Reallocate();
    }
    const SimTime next = NextCompletionTime();
    if (next > t) {
      now_ = t;
      return Status::Ok();
    }
    now_ = next;
    CompleteBatch(next);
  }
}

StatusOr<SimTime> ReferenceSimulator::RunUntilIdle(SimTime deadline) {
  while (!flows_.empty()) {
    if (dirty_) {
      Reallocate();
    }
    const SimTime next = NextCompletionTime();
    if (!std::isfinite(next)) {
      return InternalError("RunUntilIdle: active flows but no progress (all rates zero)");
    }
    if (next > deadline) {
      BDS_RETURN_IF_ERROR(AdvanceTo(deadline));
      return now_;
    }
    now_ = next;
    CompleteBatch(next);
  }
  return now_;
}

std::vector<ServerPath> EnumerateServerPaths(const Topology& topo, const WanRoutingTable& routing,
                                             ServerId src, ServerId dst) {
  std::vector<ServerPath> out;
  if (src == dst) {
    return out;
  }
  const Server& s = topo.server(src);
  const Server& d = topo.server(dst);
  if (s.dc == d.dc) {
    auto p = MakeServerPath(topo, routing, src, dst, 0);
    if (p.ok()) {
      out.push_back(std::move(p).value());
    }
    return out;
  }
  int n = static_cast<int>(routing.Routes(s.dc, d.dc).size());
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto p = MakeServerPath(topo, routing, src, dst, i);
    if (p.ok()) {
      out.push_back(std::move(p).value());
    }
  }
  return out;
}

}  // namespace bds

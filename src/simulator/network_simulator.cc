#include "src/simulator/network_simulator.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/telemetry/telemetry.h"

namespace bds {

NetworkSimulator::NetworkSimulator(const Topology* topo) : topo_(topo) {
  BDS_CHECK(topo != nullptr);
  size_t n = static_cast<size_t>(topo->num_links());
  background_.assign(n, 0.0);
  fault_factor_.assign(n, 1.0);
  usable_capacity_.resize(n);
  for (LinkId l = 0; l < topo->num_links(); ++l) {
    usable_capacity_[static_cast<size_t>(l)] = std::max(0.0, topo->link(l).capacity);
  }
  link_rate_.assign(n, 0.0);
  link_dirty_.assign(n, 0);
  link_ret_gen_.assign(n, 0);
  incidence_.Reset(topo->num_links());
}

void NetworkSimulator::MarkDirty(LinkId link) {
  size_t li = static_cast<size_t>(link);
  if (!link_dirty_[li]) {
    link_dirty_[li] = 1;
    dirty_links_.push_back(link);
  }
  rates_dirty_ = true;
}

void NetworkSimulator::ReorderSlotsForLocality() {
  const int32_t n = soa_.num_live();
  if (n == 0) {
    return;
  }
  // Lay the pool out component by component, ascending flow id within each
  // component (components enumerated by ascending seed link, so the order is
  // deterministic however the slots are arranged), so a component solve
  // gathers from a contiguous id-ordered slot range.
  // The solve scratch is free to borrow for the permutation: the starts that
  // trigger a reorder have dropped the retained arrays.
  incidence_.BeginEpoch();
  comp_slots_.clear();
  comp_slots_.reserve(static_cast<size_t>(n));
  for (LinkId l = 0; l < topo_->num_links(); ++l) {
    size_t before = comp_slots_.size();
    if (!incidence_.GatherFrom(l, soa_, &comp_slots_)) {
      continue;
    }
    std::sort(comp_slots_.begin() + static_cast<int64_t>(before), comp_slots_.end(),
              [this](int32_t a, int32_t b) {
                return soa_.meta[static_cast<size_t>(a)].id < soa_.meta[static_cast<size_t>(b)].id;
              });
  }
  // Every live flow has a non-empty path (StartFlow rejects empty ones), so
  // the component sweep visited each exactly once.
  BDS_CHECK(comp_slots_.size() == static_cast<size_t>(n));
  soa_.CompactAndReorder(comp_slots_.data(), n, &old_to_new_);
  incidence_.RemapSlots(old_to_new_);
  for (int32_t& s : id_to_slot_) {
    if (s >= 0) {
      s = old_to_new_[static_cast<size_t>(s)];
    }
  }
  // Heap entries follow their flow to its new slot; entries whose slot was
  // freed belong to finished flows and are dropped. CompactHeap then culls
  // entries invalidated by slot reuse (id mismatch) and restores the heap
  // property — pop order is unchanged because the comparator is a strict
  // total order on (key, id, epoch), which the remap does not touch.
  size_t w = 0;
  for (const CompletionEntry& e : heap_) {
    int32_t ns = old_to_new_[static_cast<size_t>(e.slot)];
    if (ns < 0) {
      continue;
    }
    heap_[w] = e;
    heap_[w].slot = ns;
    ++w;
  }
  heap_.resize(w);
  CompactHeap();
#ifndef NDEBUG
  incidence_.CheckConsistency(soa_);
#endif
}

StatusOr<FlowId> NetworkSimulator::StartFlow(std::vector<LinkId> links, Bytes bytes,
                                             Rate pinned_rate, int64_t tag, int64_t tag2) {
  if (links.empty()) {
    return InvalidArgumentError("StartFlow: empty link list");
  }
  for (LinkId l : links) {
    if (l < 0 || l >= topo_->num_links()) {
      return InvalidArgumentError("StartFlow: bad link id");
    }
  }
  // A repeated link would double-count the flow in the incidence index and
  // the per-link rate aggregates; real paths are simple, so reject it.
  for (size_t i = 0; i < links.size(); ++i) {
    for (size_t j = i + 1; j < links.size(); ++j) {
      if (links[i] == links[j]) {
        return InvalidArgumentError("StartFlow: path repeats a link");
      }
    }
  }
  if (bytes <= 0.0) {
    return InvalidArgumentError("StartFlow: bytes must be positive");
  }
  if (pinned_rate < 0.0) {
    return InvalidArgumentError("StartFlow: negative pinned rate");
  }
  FlowId id = next_flow_id_++;
  int32_t slot = soa_.Allocate(id, links.data(), static_cast<int32_t>(links.size()));
  size_t s = static_cast<size_t>(slot);
  soa_.remaining[s] = bytes;
  soa_.total_bytes[s] = bytes;
  soa_.anchor_time[s] = now_;
  soa_.meta[s].pinned_rate = pinned_rate;
  soa_.start_time[s] = now_;
  soa_.tag[s] = tag;
  soa_.tag2[s] = tag2;

  // Ids are assigned here and only here, so the dense id window extends by
  // exactly one entry per start.
  BDS_CHECK(id == id_base_ + static_cast<FlowId>(id_to_slot_.size()));
  id_to_slot_.push_back(slot);

  incidence_.Add(soa_, slot);
  fair_flows_ += !(pinned_rate > 0.0);
  for (size_t i = 0; i < links.size(); ++i) {
    MarkDirty(links[i]);
  }
  // The retained arrays would miss the new flow, and it may reuse a departed
  // member's slot; dropping them on every start rules out both (and covers
  // the locality reorder, which only follows starts).
  ret_gen_ = 0;
  ++starts_since_realloc_;
  // No per-flow trace instant here: at 1e5+ concurrent flows it would both
  // flood the ring (evicting the decision-level events) and pay a clock read
  // per start — trace.h's granularity contract is per solver call, not per
  // flow. sim.flows_started carries the count.
  ++telem_flows_started_;
  return id;
}

StatusOr<Bytes> NetworkSimulator::CancelFlow(FlowId id) {
  int32_t slot = SlotOf(id);
  if (slot < 0) {
    return NotFoundError("CancelFlow: no such active flow");
  }
  size_t s = static_cast<size_t>(slot);
  Bytes left = soa_.remaining[s] - soa_.current_rate[s] * (now_ - soa_.anchor_time[s]);
  if (left < 0.0) {
    left = 0.0;
  }
  Bytes delivered = soa_.total_bytes[s] - left;
  DetachFlow(slot);
  EraseFlow(slot);
  return delivered;
}

std::optional<FlowView> NetworkSimulator::FindFlow(FlowId id) const {
  int32_t slot = SlotOf(id);
  if (slot < 0) {
    return std::nullopt;
  }
  size_t s = static_cast<size_t>(slot);
  FlowView v;
  v.id = id;
  v.total_bytes = soa_.total_bytes[s];
  v.remaining = soa_.remaining[s];
  v.anchor_time = soa_.anchor_time[s];
  v.pinned_rate = soa_.meta[s].pinned_rate;
  v.current_rate = soa_.current_rate[s];
  v.start_time = soa_.start_time[s];
  v.tag = soa_.tag[s];
  v.tag2 = soa_.tag2[s];
  v.links = soa_.links(slot);
  v.num_links = soa_.num_links(slot);
  return v;
}

Status NetworkSimulator::SetBackgroundRate(LinkId link, Rate rate) {
  if (link < 0 || link >= topo_->num_links()) {
    return InvalidArgumentError("SetBackgroundRate: bad link");
  }
  if (rate < 0.0) {
    return InvalidArgumentError("SetBackgroundRate: negative rate");
  }
  size_t li = static_cast<size_t>(link);
  background_[li] = rate;
  usable_capacity_[li] =
      std::max(0.0, topo_->link(link).capacity * fault_factor_[li] - rate);
  MarkDirty(link);
  return Status::Ok();
}

Status NetworkSimulator::SetLinkFaultFactor(LinkId link, double factor) {
  if (link < 0 || link >= topo_->num_links()) {
    return InvalidArgumentError("SetLinkFaultFactor: bad link");
  }
  if (factor < 0.0 || factor > 1.0) {
    return InvalidArgumentError("SetLinkFaultFactor: factor must be in [0, 1]");
  }
  size_t li = static_cast<size_t>(link);
  fault_factor_[li] = factor;
  usable_capacity_[li] =
      std::max(0.0, topo_->link(link).capacity * factor - background_[li]);
  MarkDirty(link);
  return Status::Ok();
}

double NetworkSimulator::MaxCapacityViolation() const {
  double worst = -kTimeInfinity;
  bool any = false;
  for (LinkId l = 0; l < topo_->num_links(); ++l) {
    size_t i = static_cast<size_t>(l);
    Rate nominal = topo_->link(l).capacity;
    if (nominal <= 0.0) {
      continue;
    }
    any = true;
    worst = std::max(worst, (link_rate_[i] - usable_capacity_[i]) / nominal);
  }
  // No link with positive capacity means nothing can be violated.
  return any ? worst : 0.0;
}

void NetworkSimulator::DetachFlow(int32_t slot) {
  size_t s = static_cast<size_t>(slot);
  const LinkId* links = soa_.links(slot);
  int32_t n = soa_.num_links(slot);
  Rate rate = soa_.current_rate[s];
  const Rate pin = soa_.meta[s].pinned_rate;
  // Re-solve only when the departure can change another rate (DESIGN.md §10,
  // "Departures that change nothing"): the departing flow runs off its pin
  // (scaled down, or cancelled before its first solve at rate 0), or a fair
  // flow is live or left since the last reallocation pass. Otherwise the flow
  // was never scaled, so none of its links was ever phase 1's worst link, and
  // dropping it only lowers their loads: a re-solve would return the same
  // bits. The pass still runs, so per-event utilization sampling is unchanged.
  const bool resolve = fair_flows_ > 0 || rate != pin;
  for (int32_t i = 0; i < n; ++i) {
    link_rate_[static_cast<size_t>(links[i])] -= rate;
    if (resolve) {
      MarkDirty(links[i]);
    }
  }
  if (!resolve) {
    rates_dirty_ = true;
    ++telem_resolves_skipped_;
  }
  // A fair flow leaves fair_flows_ only after the next pass has re-solved its
  // component: until then the rest of that component holds argmin-only heap
  // entries, so no departure from it may skip.
  fair_exits_ += !(pin > 0.0);
  incidence_.Remove(soa_, slot);
  // Snap drained links to exactly zero so incremental -= drift can't leak
  // into LinkBulkRate or MaxCapacityViolation.
  for (int32_t i = 0; i < n; ++i) {
    if (incidence_.at(links[i]).empty()) {
      link_rate_[static_cast<size_t>(links[i])] = 0.0;
    }
  }
}

void NetworkSimulator::EraseFlow(int32_t slot) {
  size_t s = static_cast<size_t>(slot);
  FlowId id = soa_.meta[s].id;
  id_to_slot_[static_cast<size_t>(id - id_base_)] = -1;
  ++dead_ids_;
  soa_.Free(slot);
  soa_.MaybeCompactArena();
  MaybeCompactIdMap();
}

void NetworkSimulator::MaybeCompactIdMap() {
  if (dead_ids_ < id_compact_at_) {
    return;
  }
  // Slide the window past the leading tombstone run (ids below every active
  // flow can never be queried again). If the oldest flow is still active the
  // run is empty; back off until enough new tombstones accumulate.
  size_t run = 0;
  while (run < id_to_slot_.size() && id_to_slot_[run] < 0) {
    ++run;
  }
  if (run > 0) {
    id_to_slot_.erase(id_to_slot_.begin(), id_to_slot_.begin() + static_cast<int64_t>(run));
    id_base_ += static_cast<FlowId>(run);
    dead_ids_ -= static_cast<int64_t>(run);
  }
  id_compact_at_ = dead_ids_ + static_cast<int64_t>(id_to_slot_.size()) / 4 + 1024;
}

void NetworkSimulator::ReallocateComponent(LinkId seed) {
  // Gather into separate scratch: a seed that yields nothing must leave the
  // retained arrays intact.
  bfs_slots_.clear();
  if (!incidence_.GatherFrom(seed, soa_, &bfs_slots_)) {
    return;
  }
  comp_slots_.swap(bfs_slots_);
  ret_gen_ = 0;  // The comp_* arrays are about to hold this component.
  const size_t n = comp_slots_.size();
  // Canonical order: AllocateSubset must see the same sequence no matter
  // which seed found the component or how BFS traversed it, so members go in
  // ascending flow id. window_scan orders them by `key` (ids or slots, both
  // distinct) with two linear passes over a presence-byte window when the
  // keys span at most 8n values, and declines otherwise. Every branch below
  // emits the same sequence, so the choice cannot affect results.
  auto id_of = [this](int32_t slot) { return soa_.meta[static_cast<size_t>(slot)].id; };
  auto window_scan = [this, n](auto key, auto slot_at) {
    int64_t lo = key(comp_slots_[0]);
    int64_t hi = lo;
    for (size_t i = 1; i < n; ++i) {
      const int64_t k = key(comp_slots_[i]);
      lo = k < lo ? k : lo;
      hi = k > hi ? k : hi;
    }
    const size_t range = static_cast<size_t>(hi - lo) + 1;
    if (range > 8 * n) {
      return false;
    }
    present_.assign(range, 0);
    for (size_t i = 0; i < n; ++i) {
      present_[static_cast<size_t>(key(comp_slots_[i]) - lo)] = 1;
    }
    size_t w = 0;
    for (size_t i = 0; i < range; ++i) {
      comp_slots_[w] = slot_at(lo + static_cast<int64_t>(i));
      w += present_[i];
    }
    return true;
  };
  // A component's flows are usually started together, so their ids fill a
  // dense window of id_to_slot_ however slot reuse has scattered them.
  auto slot_of_id = [this](int64_t id) { return id_to_slot_[static_cast<size_t>(id - id_base_)]; };
  if (!window_scan(id_of, slot_of_id)) {
    // Strided ids: components whose flows were started interleaved. After the
    // locality reorder their slots still ascend with ids, so order the slots
    // and sort (id, slot) pairs only if that is not already id order.
    auto slot_key = [](int32_t slot) { return static_cast<int64_t>(slot); };
    auto as_slot = [](int64_t slot) { return static_cast<int32_t>(slot); };
    if (!window_scan(slot_key, as_slot)) {
      std::sort(comp_slots_.begin(), comp_slots_.end());
    }
    if (!std::is_sorted(comp_slots_.begin(), comp_slots_.end(),
                        [&](int32_t a, int32_t b) { return id_of(a) < id_of(b); })) {
      comp_ids_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        comp_ids_[i] = {id_of(comp_slots_[i]), comp_slots_[i]};
      }
      std::sort(comp_ids_.begin(), comp_ids_.end());
      for (size_t i = 0; i < n; ++i) {
        comp_slots_[i] = comp_ids_[i].second;
      }
    }
  }
  // One scattered pass gathers every input the solve and epilogue need;
  // SolveComponent works on the contiguous copies.
  comp_off_.clear();
  comp_links_.clear();
  comp_pinned_.resize(n);
  bool has_fair = false;
  for (size_t i = 0; i < n; ++i) {
    // Each iteration reads ~5 scattered lines of a slot; issue the loads a
    // few flows ahead so the misses overlap (rate_epoch with a write hint —
    // the epilogue bumps it for every changed rate). current_rate/remaining/
    // anchor_time are read later by the epilogue and argmin passes; pulling
    // them here keeps those passes on hot lines without mirror copies.
    if (i + 4 < n) {
      size_t pf = static_cast<size_t>(comp_slots_[i + 4]);
      __builtin_prefetch(&soa_.current_rate[pf]);
      __builtin_prefetch(&soa_.remaining[pf]);
      __builtin_prefetch(&soa_.anchor_time[pf]);
      __builtin_prefetch(&soa_.rate_epoch[pf], 1);
    }
    if (i + 2 < n) {
      const PathRef& pr = soa_.meta[static_cast<size_t>(comp_slots_[i + 2])].path;
      __builtin_prefetch(&soa_.path_links[static_cast<size_t>(pr.begin)]);
    }
    size_t s = static_cast<size_t>(comp_slots_[i]);
    const FlowMeta& m = soa_.meta[s];
    comp_off_.push_back(static_cast<int32_t>(comp_links_.size()));
    const LinkId* links = soa_.path_links.data() + m.path.begin;
    // Paths are a handful of links; a plain loop beats insert's memmove call.
    for (int32_t j = 0; j < m.path.len; ++j) {
      comp_links_.push_back(links[j]);
    }
    comp_pinned_[i] = m.pinned_rate;
    has_fair |= !(m.pinned_rate > 0.0);
  }
  comp_off_.push_back(static_cast<int32_t>(comp_links_.size()));
  comp_live_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    comp_live_[i] = static_cast<int32_t>(i);
  }
  comp_rate_.resize(n);
  allocator_.AllocateSubset(usable_capacity_, n, comp_off_.data(), comp_links_.data(),
                            comp_pinned_.data(), comp_rate_.data());
  ApplyRates(has_fair);
  if (has_fair) {
    return;
  }
  // Retain the arrays. Every link of every member carries the new tag, so a
  // dirty link with the tag is one the set crosses and its flows are members.
  ret_gen_ = ++last_ret_gen_;
  for (LinkId l : comp_links_) {
    link_ret_gen_[static_cast<size_t>(l)] = ret_gen_;
  }
}

void NetworkSimulator::ResolveRetained() {
  // A member has departed when its slot is no longer live: no start has run
  // since the arrays were retained, so a live slot still holds its member.
  // The arrays themselves stay as they are; the allocator tombstones the
  // departed members in its kept rows.
  size_t w = 0;
  for (int32_t i : comp_live_) {
    if (soa_.live(comp_slots_[static_cast<size_t>(i)])) {
      comp_live_[w++] = i;
    } else {
      allocator_.Depart(i, comp_off_.data(), comp_links_.data());
    }
  }
  comp_live_.resize(w);
  ++num_retained_solves_;
  ++telem_retained_solves_;
  allocator_.ResolveRetained(usable_capacity_, comp_slots_.size(), comp_off_.data(),
                             comp_links_.data(), comp_pinned_.data(), comp_rate_.data());
  ApplyRetainedRates();
}

void NetworkSimulator::CountSolve() {
  const size_t n = comp_live_.size();
  ++num_reallocations_;
  ++telem_component_solves_;
  telem_comp_sum_ += static_cast<double>(n);
  telem_comp_max_ = std::max(telem_comp_max_, static_cast<double>(n));
}

void NetworkSimulator::MoveRate(size_t i, Rate old_rate, Rate new_rate) {
  const size_t s = static_cast<size_t>(comp_slots_[i]);
  Bytes left = soa_.remaining[s] - old_rate * (now_ - soa_.anchor_time[s]);
  soa_.remaining[s] = left > 0.0 ? left : 0.0;
  soa_.anchor_time[s] = now_;
  soa_.current_rate[s] = new_rate;
  ++soa_.rate_epoch[s];
  if (rate_observer_) {
    // Band check against the last reported rate: with keep = 1 - rel and
    // rates >= 0, |new - last| > rel * max(new, last) is exactly
    // new*keep > last (rose past the band) or new < last*keep (fell past
    // it). Two multiply-compares — no fabs/max — and both-zero never fires.
    const Rate last = soa_.reported_rate[s];
    if (new_rate * rate_observer_keep_ > last || new_rate < last * rate_observer_keep_) {
      soa_.reported_rate[s] = new_rate;
      if (!rate_observer_(soa_.tag[s], soa_.tag2[s], now_, last, new_rate)) {
        rate_observer_ = nullptr;  // Observer declined further changepoints.
      }
    }
  }
  for (int32_t j = comp_off_[i]; j < comp_off_[i + 1]; ++j) {
    link_rate_[static_cast<size_t>(comp_links_[static_cast<size_t>(j)])] += new_rate - old_rate;
  }
}

void NetworkSimulator::PushEntry(int32_t slot, SimTime key) {
  const size_t s = static_cast<size_t>(slot);
  soa_.heap_epoch[s] = soa_.rate_epoch[s];
  heap_.push_back(CompletionEntry{key, soa_.meta[s].id, slot, soa_.rate_epoch[s]});
  std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
}

void NetworkSimulator::PushPinnedMember(size_t i) {
  // heap_epoch == rate_epoch means the slot's current-epoch entry (same key,
  // pushed by an earlier solve) is still in the heap; pushing again would
  // complete the flow twice in one batch. Only members that get an entry
  // need a key.
  const size_t s = static_cast<size_t>(comp_slots_[i]);
  if (!(comp_rate_[i] > 0.0) || soa_.heap_epoch[s] == soa_.rate_epoch[s]) {
    return;
  }
  const SimTime key = soa_.anchor_time[s] + soa_.remaining[s] / comp_rate_[i];
  if (key != kTimeInfinity) {
    PushEntry(comp_slots_[i], key);
  }
}

void NetworkSimulator::ApplyRates(bool has_fair) {
  CountSolve();
  const size_t n = comp_slots_.size();  // A fresh solve: every member is live.
  for (size_t i = 0; i < n; ++i) {
    // A rate whose bits did not move keeps its anchor, epoch and heap entry.
    const Rate new_rate = comp_rate_[i];
    const Rate old_rate = soa_.current_rate[static_cast<size_t>(comp_slots_[i])];
    if (new_rate != old_rate) {
      MoveRate(i, old_rate, new_rate);
    }
  }
  // Heap pushes. Between solves no member's key changes, and any event that
  // re-solves a component dirties it first, so only members that can surface
  // at the heap top before the next solve need entries:
  //   * A component with a fair flow is re-solved whenever any member leaves
  //     (DetachFlow never skips while a fair flow is live), so only its
  //     earliest projected completion(s) can surface: push just the argmin.
  //     This keeps the heap at ~#components entries, not #flows x churn.
  //   * An all-pinned component may lose members without a re-solve (see
  //     DetachFlow), after which any member can be the next to finish: push
  //     every member with a positive rate.
  // The loop above already scattered any rate change back, so the slot
  // columns are current (and still hot).
  if (!has_fair) {
    for (size_t i = 0; i < n; ++i) {
      PushPinnedMember(i);
    }
    // The arrays are about to be retained: mirror the rates just applied.
    comp_applied_.assign(comp_rate_.begin(), comp_rate_.end());
    return;
  }
  comp_keys_.resize(n);
  SimTime best = kTimeInfinity;
  for (size_t i = 0; i < n; ++i) {
    size_t s = static_cast<size_t>(comp_slots_[i]);
    comp_keys_[i] = comp_rate_[i] > 0.0
                        ? soa_.anchor_time[s] + soa_.remaining[s] / comp_rate_[i]
                        : kTimeInfinity;
    if (comp_keys_[i] < best) {
      best = comp_keys_[i];
    }
  }
  if (best == kTimeInfinity) {
    return;  // No member has a positive rate.
  }
  for (size_t i = 0; i < n; ++i) {
    size_t s = static_cast<size_t>(comp_slots_[i]);
    if (comp_keys_[i] == best && soa_.heap_epoch[s] != soa_.rate_epoch[s]) {
      PushEntry(comp_slots_[i], best);
    }
  }
}

void NetworkSimulator::ApplyRetainedRates() {
  CountSolve();
  // comp_applied_[i] is the rate member i's slot carries, so a member whose
  // bits did not move keeps its anchor, epoch and heap entry without a
  // look at its slot. Every member that moved is scattered and pushed, in
  // ascending member order, as the fresh epilogue would: the last solve of
  // these arrays pushed every live member with a positive rate and a finite
  // key, and nothing but a solve moves a member's rate, anchor or epoch.
  for (const int32_t member : comp_live_) {
    const size_t i = static_cast<size_t>(member);
    const Rate new_rate = comp_rate_[i];
    const Rate old_rate = comp_applied_[i];
    if (new_rate == old_rate) {
      continue;
    }
    comp_applied_[i] = new_rate;
    MoveRate(i, old_rate, new_rate);
    PushPinnedMember(i);
  }
}

namespace {
// Reorder only when enough flows landed since the last reallocation to matter
// and they make up a big share of the pool: a bulk submission (initial load,
// controller cycle restart) pays one O(live) pass; a steady trickle of small
// cycles never triggers repeated rewrites.
constexpr int64_t kReorderMinStarts = 4096;
}  // namespace

void NetworkSimulator::Reallocate() {
  if (starts_since_realloc_ >= kReorderMinStarts &&
      starts_since_realloc_ * 2 >= static_cast<int64_t>(soa_.num_live())) {
    ReorderSlotsForLocality();
  }
  starts_since_realloc_ = 0;
  fair_flows_ -= fair_exits_;
  fair_exits_ = 0;
  incidence_.BeginEpoch();
  ++telem_reallocations_;
  telem_dirty_links_ += static_cast<int64_t>(dirty_links_.size());
  std::sort(dirty_links_.begin(), dirty_links_.end());
  // A tag above `fresh` was handed out by a BFS solve in this pass, so its
  // links are already stamped; `solved` is the retained set's tag once this
  // pass has re-solved it. Either way the component is done for this pass.
  const uint64_t fresh = last_ret_gen_;
  uint64_t solved = 0;
  for (LinkId l : dirty_links_) {
    const uint64_t tag = link_ret_gen_[static_cast<size_t>(l)];
    if (tag != 0 && (tag == solved || tag > fresh)) {
      continue;
    }
    if (tag != 0 && tag == ret_gen_) {
      // A tagged link's flows are all retained members; a drained one
      // seeds nothing, as GatherFrom would say.
      if (!incidence_.at(l).empty()) {
        ResolveRetained();
        solved = tag;
      }
      continue;
    }
    ReallocateComponent(l);
  }
  for (LinkId l : dirty_links_) {
    link_dirty_[static_cast<size_t>(l)] = 0;
  }
  dirty_links_.clear();
  rates_dirty_ = false;
  if (heap_.size() > 1024 &&
      heap_.size() > 8 * (static_cast<size_t>(soa_.num_live()) + 1)) {
    CompactHeap();
  }
  SampleTrackedLinks();
}

void NetworkSimulator::CompactHeap() {
  size_t w = 0;
  for (const CompletionEntry& e : heap_) {
    if (!ValidEntry(e)) {
      continue;
    }
    heap_[w++] = e;
  }
  heap_.resize(w);
  std::make_heap(heap_.begin(), heap_.end(), EntryAfter{});
}

SimTime NetworkSimulator::NextCompletionTime() {
  while (!heap_.empty()) {
    const CompletionEntry& e = heap_.front();
    if (ValidEntry(e)) {
      return e.key;  // Valid top; leave it for CompleteBatch.
    }
    std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
    heap_.pop_back();
  }
  return kTimeInfinity;
}

void NetworkSimulator::CompleteBatch(SimTime t) {
  batch_.clear();
  // Every flow completing at t is its component's argmin, so its last
  // component solve pushed exactly one current-epoch entry for it; popping
  // the key == t prefix (skipping stale entries) yields exactly the batch.
  while (!heap_.empty() && heap_.front().key <= t) {
    CompletionEntry e = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
    heap_.pop_back();
    if (!ValidEntry(e)) {
      continue;
    }
    BDS_CHECK(e.key == t);  // A live completion earlier than now_ is a bug.
    batch_.emplace_back(e.id, e.slot);
  }
  std::sort(batch_.begin(), batch_.end());  // Ids are unique: sorts by id.
  BDS_CHECK(!batch_.empty());

  batch_records_.clear();
  for (const auto& [id, slot] : batch_) {
    size_t s = static_cast<size_t>(slot);
    soa_.remaining[s] = 0.0;
    soa_.anchor_time[s] = t;
    batch_records_.push_back(
        FlowRecord{id, soa_.total_bytes[s], soa_.start_time[s], t, soa_.tag[s], soa_.tag2[s]});
    DetachFlow(slot);
    EraseFlow(slot);
  }
  ++num_events_;
  ++telem_events_;
  telem_flows_completed_ += static_cast<int64_t>(batch_.size());

  // Callbacks fire after the whole batch is detached, so callback-started
  // flows can never share an allocation round with the finished batch.
  if (on_complete_) {
    for (const FlowRecord& r : batch_records_) {
      on_complete_(r);
    }
  }
}

Status NetworkSimulator::AdvanceTo(SimTime t) {
  if (t < now_ - kFluidEpsilon) {
    return InvalidArgumentError("AdvanceTo: time went backwards");
  }
  if (t < now_) {
    t = now_;  // Within the fluid tolerance: clamp instead of stepping back.
  }
  // Completion callbacks may start new flows, so the loop is bounded by a
  // generous safeguard rather than the initial flow count.
  constexpr int64_t kMaxEvents = 100'000'000;
  for (int64_t iter = 0; iter < kMaxEvents; ++iter) {
    if (rates_dirty_) {
      Reallocate();
    }
    SimTime next = NextCompletionTime();
    if (next > t) {
      now_ = t;
      PublishTelemetry();
      return Status::Ok();
    }
    now_ = next;
    CompleteBatch(next);  // Includes flows landing exactly at t.
  }
  return InternalError("AdvanceTo: event cascade did not terminate");
}

StatusOr<SimTime> NetworkSimulator::RunUntilIdle(SimTime deadline) {
  while (soa_.num_live() > 0) {
    if (rates_dirty_) {
      Reallocate();
    }
    SimTime next = NextCompletionTime();
    if (!std::isfinite(next)) {
      return InternalError("RunUntilIdle: active flows but no progress (all rates zero)");
    }
    if (next > deadline) {
      BDS_RETURN_IF_ERROR(AdvanceTo(deadline));
      SampleTrackedLinks();  // Series must end at the actual end time.
      return now_;
    }
    now_ = next;
    CompleteBatch(next);
  }
  SampleTrackedLinks();  // Series must end at the actual end time.
  PublishTelemetry();
  return now_;
}

// Folds the hot-loop accumulators into the metrics registry and one
// `sim.advance` trace instant. The per-event cost model (DESIGN.md §11)
// wants plain increments inside the drain loop; the registry's shard stores
// and the trace ring write happen here, once per drive call. A call that
// solved and completed nothing leaves no instant. A trace event keeps at
// most TraceRecorder::kMaxArgs (4) arguments; the other accumulators are
// counters only.
void NetworkSimulator::PublishTelemetry() {
  if (telem_reallocations_ > 0 || telem_events_ > 0) {
    telemetry::TraceInstant(
        "sim.advance", "simulator",
        {{"reallocations", static_cast<double>(telem_reallocations_)},
         {"events", static_cast<double>(telem_events_)},
         {"component_solves", static_cast<double>(telem_component_solves_)},
         {"retained_solves", static_cast<double>(telem_retained_solves_)}});
  }
  BDS_TELEMETRY_COUNT("sim.flows_started", telem_flows_started_);
  BDS_TELEMETRY_COUNT("sim.flows_completed", telem_flows_completed_);
  BDS_TELEMETRY_COUNT("sim.events", telem_events_);
  BDS_TELEMETRY_COUNT("sim.component_solves", telem_component_solves_);
  BDS_TELEMETRY_COUNT("sim.retained_solves", telem_retained_solves_);
  BDS_TELEMETRY_COUNT("sim.reallocations", telem_reallocations_);
  BDS_TELEMETRY_COUNT("sim.dirty_links", telem_dirty_links_);
  BDS_TELEMETRY_COUNT("sim.resolves_skipped", telem_resolves_skipped_);
  const BandwidthAllocator::Work work = allocator_.TakeWork();
  BDS_TELEMETRY_COUNT("sim.pinned_rounds", work.pinned_rounds);
  BDS_TELEMETRY_COUNT("sim.pinned_resum_terms", work.resum_terms);
  if (telem_component_solves_ > 0) {
    BDS_TELEMETRY_HISTOGRAM_BULK("sim.component_flows", telem_component_solves_,
                                 telem_comp_sum_, telem_comp_max_);
    telem_comp_sum_ = 0.0;
    telem_comp_max_ = 0.0;
  }
  telem_flows_started_ = 0;
  telem_flows_completed_ = 0;
  telem_events_ = 0;
  telem_component_solves_ = 0;
  telem_retained_solves_ = 0;
  telem_reallocations_ = 0;
  telem_dirty_links_ = 0;
  telem_resolves_skipped_ = 0;
}

Rate NetworkSimulator::LinkBulkRate(LinkId link) const {
  BDS_CHECK(link >= 0 && link < topo_->num_links());
  return link_rate_[static_cast<size_t>(link)];
}

double NetworkSimulator::LinkUtilization(LinkId link) const {
  const Link& l = topo_->link(link);
  if (l.capacity <= 0.0) {
    return 0.0;
  }
  return (LinkBulkRate(link) + background_[static_cast<size_t>(link)]) / l.capacity;
}

void NetworkSimulator::TrackLinkUtilization(LinkId link) {
  BDS_CHECK(link >= 0 && link < topo_->num_links());
  auto it = std::lower_bound(tracked_.begin(), tracked_.end(), link,
                             [](const auto& entry, LinkId l) { return entry.first < l; });
  if (it != tracked_.end() && it->first == link) {
    return;  // Already tracked.
  }
  tracked_.emplace(it, link, TimeSeries("link" + std::to_string(link)));
}

const TimeSeries* NetworkSimulator::LinkUtilizationSeries(LinkId link) const {
  auto it = std::lower_bound(tracked_.begin(), tracked_.end(), link,
                             [](const auto& entry, LinkId l) { return entry.first < l; });
  return it == tracked_.end() || it->first != link ? nullptr : &it->second;
}

void NetworkSimulator::SampleTrackedLinks() {
  for (auto& [link, series] : tracked_) {
    series.Add(now_, LinkUtilization(link));
  }
}

}  // namespace bds

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
  incidence_.Reset(topo->num_links());
}

void NetworkSimulator::set_full_reallocation(bool on) {
  BDS_CHECK(soa_.num_live() == 0);  // Mode must be fixed before flows exist.
  full_realloc_ = on;
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
  // deterministic however live_slots_ is arranged). Two payoffs: a component
  // solve scans a contiguous id-ordered slot range, and ReallocateComponent's
  // cheap slot-sort canonicalization stays valid as components shrink or
  // split — any subset of an id-ascending range is still id-ascending.
  incidence_.BeginEpoch();
  comp_slots_.clear();  // Borrow the solve scratch for the permutation.
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
  // New slot numbering is already dense, so the live list is the identity.
  live_slots_.resize(static_cast<size_t>(n));
  slot_live_pos_.assign(static_cast<size_t>(n), -1);
  for (int32_t i = 0; i < n; ++i) {
    live_slots_[static_cast<size_t>(i)] = i;
    slot_live_pos_[static_cast<size_t>(i)] = i;
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
  if (static_cast<size_t>(slot) >= slot_live_pos_.size()) {
    slot_live_pos_.resize(static_cast<size_t>(soa_.capacity()), -1);
  }
  slot_live_pos_[s] = static_cast<int32_t>(live_slots_.size());
  live_slots_.push_back(slot);

  incidence_.Add(soa_, slot);
  for (size_t i = 0; i < links.size(); ++i) {
    MarkDirty(links[i]);
  }
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
    Rate usable = std::max(0.0, nominal * fault_factor_[i] - background_[i]);
    worst = std::max(worst, (link_rate_[i] - usable) / nominal);
  }
  // No link with positive capacity means nothing can be violated.
  return any ? worst : 0.0;
}

void NetworkSimulator::DetachFlow(int32_t slot) {
  size_t s = static_cast<size_t>(slot);
  const LinkId* links = soa_.links(slot);
  int32_t n = soa_.num_links(slot);
  Rate rate = soa_.current_rate[s];
  for (int32_t i = 0; i < n; ++i) {
    link_rate_[static_cast<size_t>(links[i])] -= rate;
    MarkDirty(links[i]);
  }
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
  int32_t pos = slot_live_pos_[s];
  int32_t last = live_slots_.back();
  live_slots_[static_cast<size_t>(pos)] = last;
  slot_live_pos_[static_cast<size_t>(last)] = pos;
  live_slots_.pop_back();
  slot_live_pos_[s] = -1;
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
  comp_slots_.clear();
  if (!incidence_.GatherFrom(seed, soa_, &comp_slots_)) {
    return;
  }
  const size_t n = comp_slots_.size();
  // Canonical order: AllocateSubset must see the same sequence no matter
  // which seed found the component or how BFS traversed it. The canonical
  // order is ascending flow id, but after ReorderSlotsForLocality slot
  // numbers usually ascend with ids inside a component — so order the 4-byte
  // slots first and only fall back to the 16-byte (id, slot) pair sort when
  // a scan shows slot order disagreeing with id order (slot reuse after
  // churn, or components spanning reorder groups). The fallback depends only
  // on the component's membership, so both lockstep modes take the same
  // branch and the solve sequence stays bit-identical.
  //
  // Ascending-slot ordering itself exploits the reordered layout too: a
  // component's slots occupy a dense window, so a presence-byte scan over
  // [lo, hi] replaces the comparison sort with two linear passes. When the
  // window is sparse (no reorder yet, heavy churn) an O(n log n) sort is
  // cheaper than scanning the window; either branch emits the same ascending
  // sequence, so the choice cannot affect results.
  {
    int32_t lo = comp_slots_[0];
    int32_t hi = lo;
    for (size_t i = 1; i < n; ++i) {
      int32_t s = comp_slots_[i];
      lo = s < lo ? s : lo;
      hi = s > hi ? s : hi;
    }
    const size_t range = static_cast<size_t>(hi - lo) + 1;
    if (range <= 8 * n) {
      slot_present_.assign(range, 0);
      for (size_t i = 0; i < n; ++i) {
        slot_present_[static_cast<size_t>(comp_slots_[i] - lo)] = 1;
      }
      size_t w = 0;
      for (size_t i = 0; i < range; ++i) {
        comp_slots_[w] = lo + static_cast<int32_t>(i);
        w += slot_present_[i];
      }
    } else {
      std::sort(comp_slots_.begin(), comp_slots_.end());
    }
  }
  bool slot_order_is_id_order = true;
  {
    FlowId prev = -1;
    for (size_t i = 0; i < n; ++i) {
      if (i + 8 < n) {
        __builtin_prefetch(&soa_.meta[static_cast<size_t>(comp_slots_[i + 8])]);
      }
      FlowId id = soa_.meta[static_cast<size_t>(comp_slots_[i])].id;
      if (id < prev) {
        slot_order_is_id_order = false;
        break;
      }
      prev = id;
    }
  }
  if (!slot_order_is_id_order) {
    comp_ids_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      comp_ids_[i] = {soa_.meta[static_cast<size_t>(comp_slots_[i])].id, comp_slots_[i]};
    }
    std::sort(comp_ids_.begin(), comp_ids_.end());
    for (size_t i = 0; i < n; ++i) {
      comp_slots_[i] = comp_ids_[i].second;
    }
  }
  // One scattered pass gathers every input the solve and epilogue need; the
  // rest of this function works on the contiguous copies.
  comp_off_.clear();
  comp_links_.clear();
  comp_pinned_.resize(n);
  comp_rate_.resize(n);
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
  }
  comp_off_.push_back(static_cast<int32_t>(comp_links_.size()));
  allocator_.AllocateSubset(usable_capacity_, n, comp_off_.data(), comp_links_.data(),
                            comp_pinned_.data(), comp_rate_.data());
  ++num_reallocations_;
  ++telem_component_solves_;
  {
    // Same bin math as HistogramRecord for the [0, kCompHistMax) x
    // kCompHistBins layout; n >= 1 so only the upper clamp can hit.
    const double v = static_cast<double>(n);
    int bin = static_cast<int>(v * (kCompHistBins / kCompHistMax));
    bin = bin < kCompHistBins - 1 ? bin : kCompHistBins - 1;
    ++telem_comp_hist_[bin];
    ++telem_comp_count_;
    telem_comp_sum_ += v;
    if (v > telem_comp_max_) {
      telem_comp_max_ = v;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    size_t s = static_cast<size_t>(comp_slots_[i]);
    Rate new_rate = comp_rate_[i];
    Rate old_rate = soa_.current_rate[s];
    if (new_rate == old_rate) {
      continue;  // Bitwise unchanged: anchor, epoch, and heap entry stay valid.
    }
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
      link_rate_[static_cast<size_t>(comp_links_[static_cast<size_t>(j)])] +=
          new_rate - old_rate;
    }
  }
  if (full_realloc_) {
    return;
  }
  // Push heap entries only for the component's earliest projected
  // completion(s). Between solves no member's key changes, and any event that
  // could surface a later member (the argmin completing, a cancel, a join, a
  // capacity change) dirties the component and re-solves it first — so
  // entries for non-argmin members would be invalidated before ever reaching
  // the heap top. Pushing ~1 entry per solve instead of one per changed rate keeps the
  // heap at ~#components entries rather than #flows x churn.
  // heap_epoch == rate_epoch means the slot's current-epoch entry (same key,
  // pushed by an earlier solve) is still in the heap; pushing again would
  // complete the flow twice in one batch.
  comp_keys_.resize(n);
  SimTime best = kTimeInfinity;
  for (size_t i = 0; i < n; ++i) {
    // Same bits as CompletionKeyAt: the epilogue above already scattered any
    // rate change back, so the slot columns are current (and still hot).
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
    if (comp_keys_[i] != best) {
      continue;
    }
    int32_t slot = comp_slots_[i];
    size_t s = static_cast<size_t>(slot);
    if (soa_.heap_epoch[s] == soa_.rate_epoch[s]) {
      continue;
    }
    soa_.heap_epoch[s] = soa_.rate_epoch[s];
    heap_.push_back(CompletionEntry{best, soa_.meta[s].id, slot, soa_.rate_epoch[s]});
    std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
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
  incidence_.BeginEpoch();
  ++telem_reallocations_;
  telem_dirty_links_ += static_cast<int64_t>(dirty_links_.size());
  if (full_realloc_) {
    // Reference mode: re-solve every component regardless of dirtiness.
    for (LinkId l = 0; l < topo_->num_links(); ++l) {
      ReallocateComponent(l);
    }
  } else {
    std::sort(dirty_links_.begin(), dirty_links_.end());
    for (LinkId l : dirty_links_) {
      ReallocateComponent(l);
    }
  }
  for (LinkId l : dirty_links_) {
    link_dirty_[static_cast<size_t>(l)] = 0;
  }
  dirty_links_.clear();
  rates_dirty_ = false;
  if (!full_realloc_ && heap_.size() > 1024 &&
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
  if (full_realloc_) {
    SimTime best = kTimeInfinity;
    for (int32_t slot : live_slots_) {
      SimTime k = CompletionKeyAt(slot);
      if (k < best) {
        best = k;
      }
    }
    return best;
  }
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
  if (full_realloc_) {
    for (int32_t slot : live_slots_) {
      if (CompletionKeyAt(slot) == t) {
        batch_.emplace_back(soa_.meta[static_cast<size_t>(slot)].id, slot);
      }
    }
  } else {
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
// solved and completed nothing leaves no instant.
void NetworkSimulator::PublishTelemetry() {
  if (telem_reallocations_ > 0 || telem_events_ > 0) {
    telemetry::TraceInstant(
        "sim.advance", "simulator",
        {{"reallocations", static_cast<double>(telem_reallocations_)},
         {"events", static_cast<double>(telem_events_)},
         {"flows_completed", static_cast<double>(telem_flows_completed_)},
         {"dirty_links", static_cast<double>(telem_dirty_links_)},
         {"component_solves", static_cast<double>(telem_component_solves_)}});
  }
  BDS_TELEMETRY_COUNT("sim.flows_started", telem_flows_started_);
  BDS_TELEMETRY_COUNT("sim.flows_completed", telem_flows_completed_);
  BDS_TELEMETRY_COUNT("sim.events", telem_events_);
  BDS_TELEMETRY_COUNT("sim.component_solves", telem_component_solves_);
  BDS_TELEMETRY_COUNT("sim.reallocations", telem_reallocations_);
  BDS_TELEMETRY_COUNT("sim.dirty_links", telem_dirty_links_);
  if (telem_comp_count_ > 0) {
    BDS_TELEMETRY_HISTOGRAM_BULK("sim.component_flows", 0.0, kCompHistMax, kCompHistBins,
                                 telem_comp_hist_, telem_comp_count_, telem_comp_sum_,
                                 telem_comp_max_);
    std::fill(std::begin(telem_comp_hist_), std::end(telem_comp_hist_), int64_t{0});
    telem_comp_count_ = 0;
    telem_comp_sum_ = 0.0;
    telem_comp_max_ = 0.0;
  }
  telem_flows_started_ = 0;
  telem_flows_completed_ = 0;
  telem_events_ = 0;
  telem_component_solves_ = 0;
  telem_reallocations_ = 0;
  telem_dirty_links_ = 0;
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

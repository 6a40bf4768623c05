// Fluid flow-level discrete-event network simulator.
//
// Time advances from one flow-completion event to the next; between events
// every flow transfers bytes at the rate the BandwidthAllocator assigned.
// Clients start flows (pinned or fair-share), advance virtual time, and get
// completion callbacks. Background (latency-sensitive) traffic is modelled
// as a per-link rate that shrinks the capacity available to bulk flows —
// exactly how BDS's NetworkMonitor sees it (§5.2).
//
// Hot-path complexity (see DESIGN.md "Simulator performance"): each event
// costs O(affected component + log F), not O(F), for F active flows:
//   * active flows live in a struct-of-arrays pool (FlowSoA): hot scalars
//     are parallel slot-indexed arrays and paths live in a shared CSR arena,
//     so the waterfill and component gather scan contiguous memory;
//   * flow ids map to slots through a dense sliding window (ids are
//     sequential), not a hash map — completion-heap validation and FindFlow
//     are array lookups;
//   * a link->flow incidence index (LinkFlowIndex) finds the flows a change
//     touches without scanning the active set;
//   * reallocation is incremental — only the link-connected component(s) of
//     the incidence graph marked dirty since the last event are re-solved;
//     untouched flows keep their rates, anchors, and projected completions;
//   * a departure dirties nothing when it cannot change another rate: the
//     departing flow runs at its pin (so it was never scaled and none of its
//     links was ever a worst link) and no fair flow is live, so the pinned
//     phase's loads only drop and its sequence of worst links stays the same
//     (DESIGN.md §10);
//   * per-flow progress is lazy: (anchor_time, remaining, current_rate)
//     describe a flow between rate changes, so advancing time is O(1) per
//     untouched flow;
//   * the next completion comes from a min-heap of projected completion
//     times with lazy invalidation keyed on the slot's rate_epoch (monotonic
//     across slot reuse); a solved component pushes only its argmin when it
//     holds a fair flow, and every member with a positive rate when it is
//     all-pinned (it may then lose members without a re-solve); completions
//     sharing one event time are batched into a single reallocation;
//   * churn between two time advances costs no solve: a controller cycle's
//     flow starts and cancels only mark links dirty, and the next AdvanceTo/
//     RunUntilIdle runs one reallocation pass over the union of dirty
//     components. When that pass follows a bulk load (>= 4,096 starts that
//     make up at least half the pool) it first reorders the pool so each
//     component's flows sit in adjacent slots;
//   * the last all-pinned component a BFS pass solved keeps its id-ordered
//     flat arrays, and its links carry a generation tag; the allocator keeps
//     that solve's per-link rows and first-round loads. Until the next
//     start (or another BFS solve, which reuses the arrays), a pass that
//     reaches one of its dirty links tombstones the departed members in the
//     allocator's rows and re-solves the live ones with no BFS, ordering,
//     gather or pass over their paths; a row is re-summed only when a
//     member left it and its old load no longer proves it fits. Split parts
//     are solved together, which phase 1 decomposes exactly (DESIGN.md §10,
//     "Retained component"). The re-solve's epilogue compares the new rates
//     with a component-local copy of the applied ones and touches only the
//     slots of members whose bits moved ("Rate mirror" there).
// Completed flows leave the simulator only through the completion callback;
// no history is kept.
// The parity suite (tests/simulator_incremental_parity_test.cc) checks this
// loop bit for bit against ReferenceSimulator (tests/oracles.h), which shares
// no code with it: it keeps Flow objects, re-solves every component after any
// change and scans for the next completion. bench/bench_sim_hotpath.cc times
// it as the "reference" config.

#ifndef BDS_SRC_SIMULATOR_NETWORK_SIMULATOR_H_
#define BDS_SRC_SIMULATOR_NETWORK_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/simulator/bandwidth_allocator.h"
#include "src/simulator/flow.h"
#include "src/simulator/flow_soa.h"
#include "src/simulator/link_flow_index.h"
#include "src/topology/topology.h"

namespace bds {

class NetworkSimulator {
 public:
  explicit NetworkSimulator(const Topology* topo);

  // --- Flow management. ---

  // Starts a flow over `links` carrying `bytes`. pinned_rate == 0 means
  // fair-share. The path must not repeat a link. Returns the flow id.
  StatusOr<FlowId> StartFlow(std::vector<LinkId> links, Bytes bytes, Rate pinned_rate = 0.0,
                             int64_t tag = 0, int64_t tag2 = 0);

  // Cancels an in-flight flow; transferred bytes stay transferred but no
  // completion fires. Returns bytes that had been delivered.
  StatusOr<Bytes> CancelFlow(FlowId id);

  // nullopt when the flow completed or never existed. FlowView::remaining is
  // as of anchor_time — use FlowView::RemainingAt(now()) for live progress.
  // The view's `links` pointer is invalidated by the next churn.
  std::optional<FlowView> FindFlow(FlowId id) const;

  int num_active_flows() const { return soa_.num_live(); }

  // --- Link faults (injected churn). ---

  // Sets the usable-capacity factor of `link`: 0 = hard down, 1 = healthy,
  // in between = degradation. Effective capacity is nominal * factor;
  // in-flight flows are throttled (or starved to rate 0) at the next
  // reallocation — callers decide whether to kill them.
  Status SetLinkFaultFactor(LinkId link, double factor);
  const std::vector<double>& link_fault_factors() const { return fault_factor_; }

  // Max over links of bulk_rate - usable_bulk_capacity, normalized by the
  // link's nominal capacity; <= ~0 whenever the allocator respects every
  // (possibly faulted) link. Uses the rates of the last reallocation.
  // 0.0 (no violation) when no link has positive nominal capacity.
  double MaxCapacityViolation() const;

  // --- Background (latency-sensitive) traffic. ---

  // Sets the instantaneous rate consumed by latency-sensitive traffic on a
  // link; the allocator only hands out capacity - background to bulk flows.
  Status SetBackgroundRate(LinkId link, Rate rate);

  // --- Time. ---

  SimTime now() const { return now_; }

  // Advances virtual time to `t`, firing completion callbacks in order.
  Status AdvanceTo(SimTime t);
  Status AdvanceBy(SimTime dt) { return AdvanceTo(now_ + dt); }

  // Advances until no active flows remain or `deadline` is hit; returns the
  // final time.
  StatusOr<SimTime> RunUntilIdle(SimTime deadline = kTimeInfinity);

  // --- Observation. ---

  // Fired once per completed flow, in ascending flow id within an event,
  // after the whole event's flows are detached (so a callback may start new
  // flows). The only way completion records leave the simulator.
  using CompletionCallback = std::function<void(const FlowRecord&)>;
  void SetCompletionCallback(CompletionCallback cb) { on_complete_ = std::move(cb); }

  // Observes significant per-flow rate changepoints as reallocation applies
  // them: invoked with the flow's tags, the current simulated time, the rate
  // last reported for the flow, and the new rate. A change reports when
  // |new - last_reported| > min_relative_change * max(new, last_reported)
  // (so 0-to-nonzero and nonzero-to-0 always do) — comparing against the
  // last *reported* rate rather than the immediately previous one means the
  // per-update test is two multiply-compares against one cached value, and
  // slow drift that never moves 25% in a single solve still reports once it
  // accumulates. min_relative_change must be in (0, 1).
  //
  // The observer returns whether it wants more changepoints; returning false
  // uninstalls it, so an observer whose downstream budget is spent (see
  // FlightRecorder::WantsRateEvents) costs nothing afterwards. Null (the
  // default) costs one branch per changed rate. The observer must only
  // record — it must not touch the simulator.
  using RateObserver = std::function<bool(int64_t tag, int64_t tag2, SimTime t,
                                          Rate last_reported, Rate new_rate)>;
  void SetRateObserver(RateObserver observer, double min_relative_change = 0.25) {
    rate_observer_ = std::move(observer);
    rate_observer_keep_ = 1.0 - min_relative_change;
  }

  // Instantaneous bulk utilization (allocated rate / capacity) of `link`.
  double LinkUtilization(LinkId link) const;

  // Current total bulk rate crossing `link`.
  Rate LinkBulkRate(LinkId link) const;

  // Enables a per-link utilization time series (sampled at every event).
  // Tracked links are kept sorted by LinkId, so sampling order (and thus any
  // derived output) is deterministic regardless of registration order.
  void TrackLinkUtilization(LinkId link);
  const TimeSeries* LinkUtilizationSeries(LinkId link) const;

  const Topology& topology() const { return *topo_; }

  // --- Hot-path instrumentation. ---

  int64_t num_reallocations() const { return num_reallocations_; }
  // Component solves that re-used the retained arrays (a subset of
  // num_reallocations()).
  int64_t num_retained_solves() const { return num_retained_solves_; }
  int64_t num_completion_events() const { return num_events_; }

 private:
  struct CompletionEntry {
    SimTime key = 0.0;  // Projected completion time when pushed.
    FlowId id = kInvalidFlow;
    int32_t slot = -1;   // FlowSoA slot at push (validated against id).
    uint32_t epoch = 0;  // Slot's rate_epoch at push; stale when it moved on.
  };
  struct EntryAfter {
    // Min-heap comparator; (key, id, epoch) is a strict total order, so pop
    // order is independent of insertion order (slot is redundant with id).
    bool operator()(const CompletionEntry& a, const CompletionEntry& b) const {
      if (a.key != b.key) return a.key > b.key;
      if (a.id != b.id) return a.id > b.id;
      return a.epoch > b.epoch;
    }
  };

  // -1 when the id is not an active flow. O(1): ids are sequential, so the
  // map is a dense array over the [oldest active, newest] id window.
  int32_t SlotOf(FlowId id) const {
    if (id < id_base_ || id - id_base_ >= static_cast<FlowId>(id_to_slot_.size())) {
      return -1;
    }
    return id_to_slot_[static_cast<size_t>(id - id_base_)];
  }

  // A heap entry is current iff its slot still holds the same flow at the
  // same rate epoch (epochs are monotonic per slot and survive slot reuse,
  // and ids are unique, so this cannot false-positive).
  bool ValidEntry(const CompletionEntry& e) const {
    size_t s = static_cast<size_t>(e.slot);
    return soa_.live(e.slot) && soa_.meta[s].id == e.id && soa_.rate_epoch[s] == e.epoch;
  }

  void MarkDirty(LinkId link);
  // Physically reorders the SoA pool so flows sharing a first link occupy
  // adjacent slots (and compacts away freed slots), then remaps every
  // slot-bearing structure (incidence rows, id map, completion heap). Slot
  // numbering is unobservable — solves are canonicalized by flow
  // id — so results are bit-identical; only memory layout changes. Reallocate
  // runs it after a bulk load, where round-robin submission would otherwise
  // leave each component's flows strided across the pool.
  void ReorderSlotsForLocality();
  // Reorders the pool after a bulk load, then re-solves dirty components,
  // updating anchors, epochs, per-link rates, and the completion heap for
  // every flow whose rate actually changed.
  void Reallocate();
  // Gathers the component containing `seed` into the comp_* arrays (members
  // in ascending id order) and solves it. An all-pinned component's arrays
  // become the retained ones; any other solve drops them.
  void ReallocateComponent(LinkId seed);
  // Tombstones the retained members that have departed (slot freed), both in
  // comp_live_ and in the allocator's rows, and re-solves the live ones:
  // every current component those members form.
  void ResolveRetained();
  // Scatters a fresh solve's rates back and pushes heap entries (see the
  // file comment for the two push policies); after an all-pinned solve it
  // fills comp_applied_.
  void ApplyRates(bool has_fair);
  // A retained re-solve's epilogue: compares comp_rate_ against
  // comp_applied_ and touches the slots, links and heap of the live members
  // whose bits moved, and only those.
  void ApplyRetainedRates();
  // Per-solve counters, over the comp_live_ members.
  void CountSolve();
  // Re-anchors member i's slot at now_ from old_rate to new_rate, bumps its
  // epoch, tells the rate observer and moves its links' bulk rates.
  void MoveRate(size_t i, Rate old_rate, Rate new_rate);
  void PushEntry(int32_t slot, SimTime key);
  // Pushes member i of an all-pinned solve when it runs and its slot holds
  // no current-epoch entry.
  void PushPinnedMember(size_t i);
  // Earliest projected completion among active flows; kTimeInfinity if none.
  SimTime NextCompletionTime();
  // Completes every flow whose projected completion equals `t` (now_ == t),
  // fires callbacks after the batch is detached.
  void CompleteBatch(SimTime t);
  // Drops stale heap entries and re-heapifies (bounds heap growth under
  // long-running churn).
  void CompactHeap();
  // Removes the flow's rate from its links, marks them dirty unless the flow
  // runs at its pin and no fair flow is live (the departure then provably
  // changes no other rate), and drops the flow from the incidence index.
  void DetachFlow(int32_t slot);
  // Releases the slot: id map tombstone, pool free.
  void EraseFlow(int32_t slot);
  // Slides the id window forward once enough leading tombstones accumulate.
  void MaybeCompactIdMap();
  void SampleTrackedLinks();

  const Topology* topo_;
  BandwidthAllocator allocator_;
  LinkFlowIndex incidence_;

  SimTime now_ = 0.0;
  FlowId next_flow_id_ = 0;

  FlowSoA soa_;                      // Active-flow pool.
  FlowId id_base_ = 0;               // id_to_slot_[0] corresponds to this id.
  std::vector<int32_t> id_to_slot_;  // -1 = completed/cancelled (tombstone).
  int64_t dead_ids_ = 0;             // Tombstones currently in id_to_slot_.
  int64_t id_compact_at_ = 1024;     // Next tombstone count to compact at.

  int64_t starts_since_realloc_ = 0;  // Reorder trigger (see Reallocate).
  std::vector<int32_t> old_to_new_;   // Reorder scratch.

  std::vector<Rate> background_;             // Per link.
  std::vector<double> fault_factor_;         // Per link, 1 = healthy.
  std::vector<Rate> usable_capacity_;        // max(0, nominal*fault - background).
  std::vector<Rate> link_rate_;              // Aggregate bulk rate per link.
  int64_t fair_flows_ = 0;  // Live fair flows + fair exits since the last pass.
  int64_t fair_exits_ = 0;  // Fair flows detached since the last pass.
  bool rates_dirty_ = true;

  std::vector<LinkId> dirty_links_;
  std::vector<char> link_dirty_;

  std::vector<CompletionEntry> heap_;  // Min-heap via std::push/pop_heap.

  // Reallocation / completion scratch.
  // Component-solve scratch: the component's slots are scattered across the
  // pool, so ReallocateComponent gathers every per-flow input in one pass
  // (in canonical id order) and runs the solve + epilogue on these
  // contiguous copies, scattering back only what changed. After an
  // all-pinned solve they double as the retained arrays (see ret_gen_).
  std::vector<int32_t> comp_slots_;                  // Canonical (id) order.
  std::vector<int32_t> bfs_slots_;                   // GatherFrom output (BFS order).
  std::vector<std::pair<FlowId, int32_t>> comp_ids_;  // Sort scratch.
  std::vector<uint8_t> present_;  // Dense-window ordering scratch.
  std::vector<int32_t> comp_off_;   // CSR offsets into comp_links_.
  std::vector<LinkId> comp_links_;  // Concatenated component paths.
  std::vector<Rate> comp_pinned_;
  std::vector<Rate> comp_rate_;      // Solver output.
  // While retained: the rate each member's slot carries (its current_rate),
  // sequential where the slots are scattered. Departed members' entries are
  // stale.
  std::vector<Rate> comp_applied_;
  std::vector<int32_t> comp_live_;   // Indices of the members still live, ascending.
  std::vector<SimTime> comp_keys_;  // Projected completions after the solve.
  // Retained component: when ret_gen_ != 0 the comp_* arrays hold the
  // all-pinned flow set last solved under that generation (departed members
  // included, until a BFS solve reuses the arrays), the allocator holds that
  // set's rows and first-round loads, and exactly the links its members
  // crossed carry link_ret_gen_ == ret_gen_. Generations only grow, so a
  // dropped set's tags never match again.
  std::vector<uint64_t> link_ret_gen_;
  uint64_t ret_gen_ = 0;       // 0 = nothing retained.
  uint64_t last_ret_gen_ = 0;  // Last generation handed out.
  std::vector<std::pair<FlowId, int32_t>> batch_;  // (id, slot), sorted by id.
  std::vector<FlowRecord> batch_records_;          // Records of batch_.

  int64_t num_reallocations_ = 0;
  int64_t num_retained_solves_ = 0;
  int64_t num_events_ = 0;

  // Telemetry accumulators: the event loop bumps plain members and
  // PublishTelemetry() folds them into the registry, and into one
  // `sim.advance` trace instant, once per drive call (AdvanceTo /
  // RunUntilIdle), so the per-event telemetry cost is a plain increment
  // rather than a registry call (DESIGN.md §11 cost model).
  void PublishTelemetry();
  int64_t telem_flows_started_ = 0;
  int64_t telem_flows_completed_ = 0;
  int64_t telem_events_ = 0;
  int64_t telem_component_solves_ = 0;
  int64_t telem_retained_solves_ = 0;
  int64_t telem_reallocations_ = 0;
  int64_t telem_dirty_links_ = 0;
  int64_t telem_resolves_skipped_ = 0;  // Departures that dirtied no link.
  // The sim.component_flows histogram's sum and max (its count is
  // telem_component_solves_), published with HistogramRecordBulk.
  double telem_comp_sum_ = 0.0;
  double telem_comp_max_ = 0.0;

  CompletionCallback on_complete_;
  RateObserver rate_observer_;
  double rate_observer_keep_ = 0.75;  // 1 - min_relative_change.
  std::vector<std::pair<LinkId, TimeSeries>> tracked_;  // Sorted by LinkId.
};

}  // namespace bds

#endif  // BDS_SRC_SIMULATOR_NETWORK_SIMULATOR_H_

#include "src/simulator/bandwidth_allocator.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace bds {
namespace {

// Phase 1's over-capacity test, for first-round and re-summed loads alike.
bool Oversubscribed(Rate load, Rate residual) {
  return load > residual * (1.0 + kFluidEpsilon) && load > 0.0;
}

}  // namespace

void BandwidthAllocator::EnsureScratch(size_t num_links) {
  if (link_gen_.size() < num_links) {
    link_gen_.resize(num_links, 0);
    residual_.resize(num_links, 0.0);
    load_.resize(num_links, 0.0);
    pin_load_.resize(num_links, 0.0);
    stale_.resize(num_links, 0);
    row_live_.resize(num_links, 0);
    active_count_.resize(num_links, 0);
    link_saturated_.resize(num_links, 0);
    link_row_.resize(num_links, 0);
    over_mark_.resize(num_links, 0);
    link_seen_.resize(num_links, 0);
  }
}

void BandwidthAllocator::CollectIfOver(size_t l) {
  if (Oversubscribed(pin_load_[l], residual_[l])) {
    over_mark_[l] = 1;
    load_[l] = pin_load_[l];
    over_.push_back(l);
  }
}

void BandwidthAllocator::AllocateSubset(const std::vector<Rate>& capacities, size_t n,
                                        const int32_t* offsets, const LinkId* links,
                                        const Rate* pinned, Rate* rate) {
  EnsureScratch(capacities.size());
  ++gen_;
  used_links_.clear();
  pinned_.clear();
  fair_.clear();
  departed_.assign(n, 0);

  auto touch = [&](size_t l) {
    if (link_gen_[l] != gen_) {
      link_gen_[l] = gen_;
      residual_[l] = std::max(0.0, capacities[l]);
      pin_load_[l] = 0.0;
      stale_[l] = 0;
      row_live_[l] = 0;
      active_count_[l] = 0;
      link_saturated_[l] = 0;
      link_row_[l] = static_cast<int32_t>(used_links_.size());
      if (rows_.size() == used_links_.size()) {
        rows_.emplace_back();
        row_links_.emplace_back();
      }
      rows_[used_links_.size()].clear();
      row_links_[used_links_.size()].clear();
      used_links_.push_back(l);
    }
  };
  for (size_t fi = 0; fi < n; ++fi) {
    if (pinned[fi] > 0.0) {
      // Phase 1's first-round loads and rows, both in ascending flow order.
      for (int32_t i = offsets[fi]; i < offsets[fi + 1]; ++i) {
        size_t l = static_cast<size_t>(links[i]);
        touch(l);
        pin_load_[l] += pinned[fi];
        rows_[static_cast<size_t>(link_row_[l])].push_back(static_cast<int32_t>(fi));
        ++row_live_[l];
      }
      rate[fi] = pinned[fi];
      pinned_.push_back(static_cast<int32_t>(fi));
    } else {
      // Fair flows count toward phase 2's per-link active totals; folding the
      // increment into the touch pass saves a second walk over every path.
      for (int32_t i = offsets[fi]; i < offsets[fi + 1]; ++i) {
        size_t l = static_cast<size_t>(links[i]);
        touch(l);
        ++active_count_[l];
      }
      rate[fi] = 0.0;
      fair_.push_back(static_cast<int32_t>(fi));
    }
  }
  // --- Phase 1: pinned flows. ---
  if (!pinned_.empty()) {
    for (size_t l : used_links_) {
      CollectIfOver(l);
    }
    ScaleDown(used_links_.size() + 1, offsets, links, rate);
    // Subtract the pinned load from the residual available to fair flows.
    if (!fair_.empty()) {
      for (int32_t fi : pinned_) {
        for (int32_t i = offsets[fi]; i < offsets[fi + 1]; ++i) {
          size_t l = static_cast<size_t>(links[i]);
          residual_[l] = std::max(0.0, residual_[l] - rate[fi]);
        }
      }
    }
  }

  // --- Phase 2: max-min fair filling for unpinned flows. ---
  if (fair_.empty()) {
    return;
  }
  frozen_.assign(fair_.size(), 0);
  size_t remaining_flows = fair_.size();
  // Each round saturates at least one used link (or freezes all flows).
  for (size_t round = 0; round < used_links_.size() + 1 && remaining_flows > 0; ++round) {
    // Largest uniform increment every active flow can take.
    double inc = std::numeric_limits<double>::infinity();
    for (size_t l : used_links_) {
      if (active_count_[l] > 0 && !link_saturated_[l]) {
        inc = std::min(inc, residual_[l] / active_count_[l]);
      }
    }
    if (!std::isfinite(inc)) {
      break;  // No capacity constraint binds (shouldn't happen in practice).
    }
    for (size_t i = 0; i < fair_.size(); ++i) {
      if (!frozen_[i]) {
        rate[fair_[i]] += inc;
      }
    }
    for (size_t l : used_links_) {
      if (active_count_[l] > 0 && !link_saturated_[l]) {
        residual_[l] -= inc * active_count_[l];
        if (residual_[l] <= kFluidEpsilon * std::max(1.0, capacities[l])) {
          link_saturated_[l] = 1;
        }
      }
    }
    // Freeze flows crossing newly saturated links.
    for (size_t i = 0; i < fair_.size(); ++i) {
      if (frozen_[i]) {
        continue;
      }
      int32_t fi = fair_[i];
      bool hit = false;
      for (int32_t j = offsets[fi]; j < offsets[fi + 1]; ++j) {
        if (link_saturated_[static_cast<size_t>(links[j])]) {
          hit = true;
          break;
        }
      }
      if (hit) {
        frozen_[i] = 1;
        --remaining_flows;
        for (int32_t j = offsets[fi]; j < offsets[fi + 1]; ++j) {
          --active_count_[static_cast<size_t>(links[j])];
        }
      }
    }
  }
}

void BandwidthAllocator::ScaleDown(size_t round_cap, const int32_t* offsets, const LinkId* links,
                                   Rate* rate) {
  // Every flow starts at its pinned rate. Repeatedly scale down the flows
  // crossing the most oversubscribed link until everything fits. Each round
  // satisfies one link for good, so the loop ends within the cap, one more
  // than the links solved; the cap binds only on subnormal rates, where a
  // scaled row can round back over capacity. The worst link is the
  // lexicographic minimum of (factor, link id), so the order of over_ cannot
  // matter.
  //
  // Rounds only multiply rates by factors below 1, and each load is a sum of
  // non-negative terms in ascending flow order; rounded multiplication and
  // addition are monotone, so a link's load never rises within the call. A
  // link that fits once therefore fits for good, and only the links in
  // over_ need a factor or a re-sum. Their rows hold no departed member.
  for (size_t round = 0; round < round_cap && !over_.empty(); ++round) {
    double worst_factor = std::numeric_limits<double>::infinity();
    size_t worst_link = std::numeric_limits<size_t>::max();
    for (size_t l : over_) {
      double factor = residual_[l] / load_[l];
      if (factor < worst_factor || (factor == worst_factor && l < worst_link)) {
        worst_factor = factor;
        worst_link = l;
      }
    }
    // Scale the worst link's flows, then re-sum the oversubscribed links
    // they cross, in the order a walk over the flows' paths first meets
    // them. Every row lists its flows in ascending index order, the order of
    // the first pass, so each re-sum reproduces a full recompute's bits.
    ++work_.pinned_rounds;
    const size_t row = static_cast<size_t>(link_row_[worst_link]);
    for (int32_t fi : rows_[row]) {
      rate[fi] *= worst_factor;
    }
    if (row_links_[row].empty()) {
      BuildRowLinks(row, offsets, links);
    }
    resum_.clear();
    for (int32_t l : row_links_[row]) {
      if (over_mark_[static_cast<size_t>(l)] == 1) {
        over_mark_[static_cast<size_t>(l)] = 2;
        resum_.push_back(static_cast<size_t>(l));
      }
    }
    for (size_t l : resum_) {
      const std::vector<int32_t>& row = rows_[static_cast<size_t>(link_row_[l])];
      double sum = 0.0;
      for (int32_t fi : row) {
        sum += rate[fi];
      }
      load_[l] = sum;
      work_.resum_terms += static_cast<int64_t>(row.size());
      over_mark_[l] = Oversubscribed(sum, residual_[l]) ? 1 : 0;
    }
    over_.erase(std::remove_if(over_.begin(), over_.end(),
                               [&](size_t l) { return over_mark_[l] == 0; }),
                over_.end());
  }
  for (size_t l : over_) {
    over_mark_[l] = 0;  // The round cap ended the loop.
  }
  over_.clear();
}

void BandwidthAllocator::BuildRowLinks(size_t row, const int32_t* offsets, const LinkId* links) {
  ++seen_gen_;
  std::vector<int32_t>& out = row_links_[row];
  out.clear();
  for (int32_t fi : rows_[row]) {
    for (int32_t i = offsets[fi]; i < offsets[fi + 1]; ++i) {
      const size_t l = static_cast<size_t>(links[i]);
      if (link_seen_[l] != seen_gen_) {
        link_seen_[l] = seen_gen_;
        out.push_back(links[i]);
      }
    }
  }
}

void BandwidthAllocator::Depart(int32_t fi, const int32_t* offsets, const LinkId* links) {
  departed_[static_cast<size_t>(fi)] = 1;
  for (int32_t i = offsets[fi]; i < offsets[fi + 1]; ++i) {
    const size_t l = static_cast<size_t>(links[i]);
    stale_[l] = 1;
    --row_live_[l];
    row_links_[static_cast<size_t>(link_row_[l])].clear();  // Rebuilt before its next scaling.
  }
}

void BandwidthAllocator::ResolveRetained(const std::vector<Rate>& capacities, size_t n,
                                         const int32_t* offsets, const LinkId* links,
                                         const Rate* pinned, Rate* rate) {
  std::copy(pinned, pinned + n, rate);
  size_t live_links = 0;  // The links a fresh call on the live members would touch.
  for (size_t l : used_links_) {
    if (row_live_[l] == 0) {
      continue;
    }
    ++live_links;
    const Rate residual = std::max(0.0, capacities[l]);
    if (stale_[l]) {
      if (!Oversubscribed(pin_load_[l], residual)) {
        continue;  // The bound fits, so the live members' load does too.
      }
      // Re-sum the live members in ascending order, as a fresh call's first
      // pass would, and drop the tombstones for good.
      std::vector<int32_t>& row = rows_[static_cast<size_t>(link_row_[l])];
      double sum = 0.0;
      size_t w = 0;
      for (int32_t fi : row) {
        if (!departed_[static_cast<size_t>(fi)]) {
          row[w++] = fi;
          sum += pinned[fi];
        }
      }
      row.resize(w);
      pin_load_[l] = sum;
      stale_[l] = 0;
    }
    residual_[l] = residual;
    CollectIfOver(l);
  }
  ScaleDown(live_links + 1, offsets, links, rate);
}

}  // namespace bds

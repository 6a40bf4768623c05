#include "src/simulator/bandwidth_allocator.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace bds {

void BandwidthAllocator::EnsureScratch(size_t num_links) {
  if (link_gen_.size() < num_links) {
    link_gen_.resize(num_links, 0);
    residual_.resize(num_links, 0.0);
    load_.resize(num_links, 0.0);
    active_count_.resize(num_links, 0);
    link_saturated_.resize(num_links, 0);
    link_row_.resize(num_links, 0);
    over_mark_.resize(num_links, 0);
  }
}

void BandwidthAllocator::BuildPinnedRows(const int32_t* offsets, const LinkId* links) {
  if (rows_.size() < over_.size()) {
    rows_.resize(over_.size());
  }
  for (size_t r = 0; r < over_.size(); ++r) {
    rows_[r].clear();
  }
  // pinned_ ascends, so every row comes out in ascending flow order.
  for (int32_t fi : pinned_) {
    for (int32_t i = offsets[fi]; i < offsets[fi + 1]; ++i) {
      const size_t l = static_cast<size_t>(links[i]);
      if (over_mark_[l]) {
        rows_[static_cast<size_t>(link_row_[l])].push_back(fi);
      }
    }
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

  auto touch = [&](size_t l) {
    if (link_gen_[l] != gen_) {
      link_gen_[l] = gen_;
      residual_[l] = std::max(0.0, capacities[l]);
      load_[l] = 0.0;
      active_count_[l] = 0;
      link_saturated_[l] = 0;
      used_links_.push_back(l);
    }
  };
  for (size_t fi = 0; fi < n; ++fi) {
    if (pinned[fi] > 0.0) {
      // Phase 1's first-round loads, summed in ascending flow order.
      for (int32_t i = offsets[fi]; i < offsets[fi + 1]; ++i) {
        size_t l = static_cast<size_t>(links[i]);
        touch(l);
        load_[l] += pinned[fi];
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
  // Start each at its pinned rate, then repeatedly scale down the flows
  // crossing the most oversubscribed link until everything fits. Each
  // iteration satisfies one link for good, so this terminates in at most
  // used_links rounds; the cap binds only on subnormal rates, where a scaled
  // row can round back over capacity. The worst link is the lexicographic
  // minimum of (factor, link id), so the order of used_links_ cannot matter.
  //
  // Rounds only multiply rates by factors below 1, and each load is a sum of
  // non-negative terms in ascending flow order; rounded multiplication and
  // addition are monotone, so a link's load never rises within the call. A
  // link that fits once therefore fits for good, and only the links in
  // over_ need a row, a factor or a re-sum.
  if (!pinned_.empty()) {
    auto oversubscribed = [&](size_t l) {
      return load_[l] > residual_[l] * (1.0 + kFluidEpsilon) && load_[l] > 0.0;
    };
    over_.clear();
    for (size_t l : used_links_) {
      if (oversubscribed(l)) {
        over_mark_[l] = 1;
        link_row_[l] = static_cast<int32_t>(over_.size());
        over_.push_back(l);
      }
    }
    if (!over_.empty()) {
      BuildPinnedRows(offsets, links);
    }
    for (size_t round = 0; round < used_links_.size() + 1 && !over_.empty(); ++round) {
      double worst_factor = std::numeric_limits<double>::infinity();
      size_t worst_link = capacities.size();
      for (size_t l : over_) {
        double factor = residual_[l] / load_[l];
        if (factor < worst_factor || (factor == worst_factor && l < worst_link)) {
          worst_factor = factor;
          worst_link = l;
        }
      }
      // Scale the worst link's flows, then re-sum the oversubscribed links
      // they cross. Every row lists its flows in ascending index order, the
      // order of the first pass, so each re-sum reproduces a full
      // recompute's bits.
      ++work_.pinned_rounds;
      resum_.clear();
      for (int32_t fi : rows_[static_cast<size_t>(link_row_[worst_link])]) {
        rate[fi] *= worst_factor;
        for (int32_t i = offsets[fi]; i < offsets[fi + 1]; ++i) {
          size_t l = static_cast<size_t>(links[i]);
          if (over_mark_[l] == 1) {
            over_mark_[l] = 2;
            resum_.push_back(l);
          }
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
        over_mark_[l] = oversubscribed(l) ? 1 : 0;
      }
      over_.erase(std::remove_if(over_.begin(), over_.end(),
                                 [&](size_t l) { return over_mark_[l] == 0; }),
                  over_.end());
    }
    for (size_t l : over_) {
      over_mark_[l] = 0;  // The round cap ended the loop.
    }
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

}  // namespace bds

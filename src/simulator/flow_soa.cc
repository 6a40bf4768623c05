#include "src/simulator/flow_soa.h"

#include "src/common/status.h"

namespace bds {

int32_t FlowSoA::Allocate(FlowId flow_id, const LinkId* path, int32_t len) {
  BDS_CHECK(len > 0);
  int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    size_t s = static_cast<size_t>(slot);
    if (len <= path_cap_[s]) {
      arena_dead_ += path_cap_[s] - len;  // Tail of the row goes unused.
      path_cap_[s] = len;
    } else {
      // The old row is too small: orphan it and append a fresh one.
      arena_dead_ += path_cap_[s];
      meta[s].path.begin = static_cast<int32_t>(path_links.size());
      path_cap_[s] = len;
      path_links.resize(path_links.size() + static_cast<size_t>(len));
      incidence_pos.resize(path_links.size());
    }
    meta[s].path.len = len;
  } else {
    slot = static_cast<int32_t>(meta.size());
    remaining.push_back(0.0);
    anchor_time.push_back(0.0);
    current_rate.push_back(0.0);
    rate_epoch.push_back(0);
    heap_epoch.push_back(0);
    FlowMeta m;
    m.path = PathRef{static_cast<int32_t>(path_links.size()), len};
    meta.push_back(m);
    total_bytes.push_back(0.0);
    start_time.push_back(0.0);
    tag.push_back(0);
    tag2.push_back(0);
    reported_rate.push_back(0.0);
    path_cap_.push_back(len);
    live_.push_back(0);
    path_links.resize(path_links.size() + static_cast<size_t>(len));
    incidence_pos.resize(path_links.size());
  }
  size_t s = static_cast<size_t>(slot);
  LinkId* row = path_links.data() + meta[s].path.begin;
  for (int32_t i = 0; i < len; ++i) {
    row[i] = path[i];
  }
  remaining[s] = 0.0;
  anchor_time[s] = 0.0;
  current_rate[s] = 0.0;
  meta[s].pinned_rate = 0.0;
  meta[s].id = flow_id;
  total_bytes[s] = 0.0;
  start_time[s] = 0.0;
  tag[s] = 0;
  tag2[s] = 0;
  reported_rate[s] = 0.0;
  live_[s] = 1;
  ++num_live_;
  return slot;
}

void FlowSoA::Free(int32_t slot) {
  size_t s = static_cast<size_t>(slot);
  BDS_CHECK(live_[s]);
  live_[s] = 0;
  meta[s].id = kInvalidFlow;
  free_slots_.push_back(slot);
  --num_live_;
}

void FlowSoA::MaybeCompactArena() {
  int64_t attached = static_cast<int64_t>(path_links.size()) - arena_dead_;
  if (arena_dead_ <= attached + 1024) {
    return;
  }
  // Rewrite every slot's row (live or free-with-row) contiguously, trimming
  // each to its current length; free slots keep nothing.
  std::vector<LinkId> new_links;
  std::vector<int32_t> new_pos;
  new_links.reserve(static_cast<size_t>(attached));
  new_pos.reserve(static_cast<size_t>(attached));
  for (size_t s = 0; s < meta.size(); ++s) {
    if (!live_[s]) {
      path_cap_[s] = 0;
      meta[s].path = PathRef{};
      continue;
    }
    int32_t begin = meta[s].path.begin;
    int32_t len = meta[s].path.len;
    int32_t new_begin = static_cast<int32_t>(new_links.size());
    for (int32_t i = 0; i < len; ++i) {
      new_links.push_back(path_links[static_cast<size_t>(begin + i)]);
      new_pos.push_back(incidence_pos[static_cast<size_t>(begin + i)]);
    }
    meta[s].path.begin = new_begin;
    path_cap_[s] = len;
  }
  path_links = std::move(new_links);
  incidence_pos = std::move(new_pos);
  arena_dead_ = 0;
}

void FlowSoA::CompactAndReorder(const int32_t* order, int32_t n,
                                std::vector<int32_t>* old_to_new) {
  BDS_CHECK(n == num_live_);
  old_to_new->assign(meta.size(), -1);
  size_t un = static_cast<size_t>(n);
  std::vector<Bytes> new_remaining;
  std::vector<SimTime> new_anchor;
  std::vector<Rate> new_rate;
  std::vector<uint32_t> new_repoch;
  std::vector<uint32_t> new_hepoch;
  std::vector<FlowMeta> new_meta;
  std::vector<Bytes> new_total;
  std::vector<SimTime> new_start;
  std::vector<int64_t> new_tag;
  std::vector<int64_t> new_tag2;
  std::vector<Rate> new_reported;
  std::vector<LinkId> new_links;
  std::vector<int32_t> new_pos;
  std::vector<int32_t> new_cap;
  new_remaining.reserve(un);
  new_anchor.reserve(un);
  new_rate.reserve(un);
  new_repoch.reserve(un);
  new_hepoch.reserve(un);
  new_meta.reserve(un);
  new_total.reserve(un);
  new_start.reserve(un);
  new_tag.reserve(un);
  new_tag2.reserve(un);
  new_reported.reserve(un);
  new_links.reserve(static_cast<size_t>(static_cast<int64_t>(path_links.size()) - arena_dead_));
  new_pos.reserve(new_links.capacity());
  new_cap.reserve(un);
  for (int32_t i = 0; i < n; ++i) {
    size_t os = static_cast<size_t>(order[i]);
    BDS_CHECK(live_[os] && (*old_to_new)[os] == -1);
    (*old_to_new)[os] = i;
    new_remaining.push_back(remaining[os]);
    new_anchor.push_back(anchor_time[os]);
    new_rate.push_back(current_rate[os]);
    new_repoch.push_back(rate_epoch[os]);
    new_hepoch.push_back(heap_epoch[os]);
    new_total.push_back(total_bytes[os]);
    new_start.push_back(start_time[os]);
    new_tag.push_back(tag[os]);
    new_tag2.push_back(tag2[os]);
    new_reported.push_back(reported_rate[os]);
    FlowMeta m = meta[os];
    int32_t begin = m.path.begin;
    m.path.begin = static_cast<int32_t>(new_links.size());
    for (int32_t j = 0; j < m.path.len; ++j) {
      new_links.push_back(path_links[static_cast<size_t>(begin + j)]);
      new_pos.push_back(incidence_pos[static_cast<size_t>(begin + j)]);
    }
    new_meta.push_back(m);
    new_cap.push_back(m.path.len);
  }
  remaining = std::move(new_remaining);
  anchor_time = std::move(new_anchor);
  current_rate = std::move(new_rate);
  rate_epoch = std::move(new_repoch);
  heap_epoch = std::move(new_hepoch);
  meta = std::move(new_meta);
  total_bytes = std::move(new_total);
  start_time = std::move(new_start);
  tag = std::move(new_tag);
  tag2 = std::move(new_tag2);
  reported_rate = std::move(new_reported);
  path_links = std::move(new_links);
  incidence_pos = std::move(new_pos);
  path_cap_ = std::move(new_cap);
  live_.assign(un, 1);
  free_slots_.clear();
  arena_dead_ = 0;
}

}  // namespace bds

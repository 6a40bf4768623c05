#include "src/lp/mcf_internal.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/status.h"
#include "src/common/types.h"

namespace bds {
namespace mcf_internal {

FlatMcf FlattenMcf(const McfInstance& instance) {
  FlatMcf flat;
  flat.cap = instance.capacities;
  for (int c = 0; c < instance.num_commodities(); ++c) {
    const McfCommodity& com = instance.commodities[static_cast<size_t>(c)];
    int demand_edge = -1;
    if (com.demand >= 0.0) {
      demand_edge = static_cast<int>(flat.cap.size());
      flat.cap.push_back(com.demand);
    }
    for (size_t p = 0; p < com.paths.size(); ++p) {
      FlatPath fp;
      fp.commodity = c;
      fp.path_index = static_cast<int>(p);
      const std::vector<int>& links = com.paths[p].links;
      fp.links.reserve(links.size() + (demand_edge >= 0 ? 1 : 0));
      fp.links.insert(fp.links.end(), links.begin(), links.end());
      if (demand_edge >= 0) {
        fp.links.push_back(demand_edge);
      }
      // Paths through a zero-capacity edge can carry nothing.
      bool dead = false;
      for (int l : fp.links) {
        if (flat.cap[static_cast<size_t>(l)] <= 0.0) {
          dead = true;
          break;
        }
      }
      if (!dead && !fp.links.empty()) {
        flat.paths.push_back(std::move(fp));
      }
    }
  }
  flat.commodity_paths.resize(static_cast<size_t>(instance.num_commodities()));
  for (size_t i = 0; i < flat.paths.size(); ++i) {
    flat.commodity_paths[static_cast<size_t>(flat.paths[i].commodity)].push_back(
        static_cast<int>(i));
    flat.max_len = std::max(flat.max_len, flat.paths[i].links.size());
  }
  return flat;
}

double FptasDelta(const FlatMcf& flat, double epsilon) {
  return (1.0 + epsilon) *
         std::pow((1.0 + epsilon) * static_cast<double>(flat.num_edges()), -1.0 / epsilon);
}

int64_t MaxPushes(const FlatMcf& flat, double epsilon, double delta) {
  return static_cast<int64_t>(4.0 * static_cast<double>(flat.num_edges()) *
                              std::log((1.0 + epsilon) / delta) / std::log(1.0 + epsilon)) +
         1024;
}

McfResult MakeEmptyFptasResult(const McfInstance& instance) {
  McfResult result;
  result.flow.resize(static_cast<size_t>(instance.num_commodities()));
  for (int c = 0; c < instance.num_commodities(); ++c) {
    result.flow[static_cast<size_t>(c)].assign(
        instance.commodities[static_cast<size_t>(c)].paths.size(), 0.0);
  }
  return result;
}

void FinalizeFptas(const FlatMcf& flat, double epsilon, double delta,
                   std::vector<double>& raw_flow, McfResult& result) {
  const size_t num_edges = flat.num_edges();
  const std::vector<double>& cap = flat.cap;
  const std::vector<FlatPath>& paths = flat.paths;

  const double scale = std::log((1.0 + epsilon) / delta) / std::log(1.0 + epsilon);
  BDS_CHECK(scale > 0.0);
  for (double& f : raw_flow) {
    f /= scale;
  }
  std::vector<double> load(num_edges, 0.0);
  for (size_t i = 0; i < paths.size(); ++i) {
    for (int l : paths[i].links) {
      load[static_cast<size_t>(l)] += raw_flow[i];
    }
  }
  double worst = 1.0;
  for (size_t l = 0; l < num_edges; ++l) {
    if (cap[l] > 0.0) {
      worst = std::max(worst, load[l] / cap[l]);
    }
  }
  for (size_t i = 0; i < paths.size(); ++i) {
    raw_flow[i] /= worst;
  }
  for (size_t l = 0; l < num_edges; ++l) {
    load[l] /= worst;
  }

  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < paths.size(); ++i) {
      double slack = std::numeric_limits<double>::infinity();
      for (int l : paths[i].links) {
        slack = std::min(slack, cap[static_cast<size_t>(l)] - load[static_cast<size_t>(l)]);
      }
      if (slack > kFluidEpsilon) {
        raw_flow[i] += slack;
        for (int l : paths[i].links) {
          load[static_cast<size_t>(l)] += slack;
        }
      }
    }
  }

  for (size_t i = 0; i < paths.size(); ++i) {
    result.flow[static_cast<size_t>(paths[i].commodity)][static_cast<size_t>(paths[i].path_index)] =
        raw_flow[i];
    result.total_flow += raw_flow[i];
  }
}

FptasWorkspace::FptasWorkspace(const FlatMcf& flat, double epsilon) {
  const std::vector<double>& cap = flat.cap;
  const std::vector<FlatPath>& paths = flat.paths;
  num_edges = flat.num_edges();
  num_paths = paths.size();
  num_commodities = flat.commodity_paths.size();

  path_off.assign(num_paths + 1, 0);
  size_t total_links = 0;
  for (size_t i = 0; i < num_paths; ++i) {
    total_links += paths[i].links.size();
    path_off[i + 1] = static_cast<int32_t>(total_links);
  }
  path_links.resize(total_links);
  path_factor.resize(total_links);
  path_bneck.resize(num_paths);
  for (size_t i = 0; i < num_paths; ++i) {
    double bottleneck = std::numeric_limits<double>::infinity();
    for (int l : paths[i].links) {
      bottleneck = std::min(bottleneck, cap[static_cast<size_t>(l)]);
    }
    path_bneck[i] = bottleneck;
    size_t j = static_cast<size_t>(path_off[i]);
    for (int l : paths[i].links) {
      path_links[j] = l;
      path_factor[j] = 1.0 + epsilon * bottleneck / cap[static_cast<size_t>(l)];
      ++j;
    }
  }
  cp_off.assign(num_commodities + 1, 0);
  cp_ids.reserve(num_paths);
  for (size_t c = 0; c < num_commodities; ++c) {
    for (int pi : flat.commodity_paths[c]) {
      cp_ids.push_back(pi);
    }
    cp_off[c + 1] = static_cast<int32_t>(cp_ids.size());
  }

  // Shared-structure detection (see SolveMcfFptas's commentary in mcf.cc):
  // every commodity RouteBlocks emits shares one uplink (first link), one
  // downlink (second-to-last) and its private demand edge (last link) across
  // all of its paths.
  com_first.assign(num_commodities, -1);
  com_penult.assign(num_commodities, -1);
  com_last.assign(num_commodities, -1);
  std::vector<uint8_t> com_structured(num_commodities, 0);
  for (size_t c = 0; c < num_commodities; ++c) {
    bool ok = cp_off[c] != cp_off[c + 1];
    int32_t first = -1, penult = -1, last = -1;
    for (int32_t idx = cp_off[c]; ok && idx < cp_off[c + 1]; ++idx) {
      const int32_t pi = cp_ids[static_cast<size_t>(idx)];
      const int32_t b = path_off[pi], e = path_off[pi + 1];
      if (e - b < 3) {
        ok = false;
        break;
      }
      if (idx == cp_off[c]) {
        first = path_links[static_cast<size_t>(b)];
        penult = path_links[static_cast<size_t>(e - 2)];
        last = path_links[static_cast<size_t>(e - 1)];
      } else if (path_links[static_cast<size_t>(b)] != first ||
                 path_links[static_cast<size_t>(e - 2)] != penult ||
                 path_links[static_cast<size_t>(e - 1)] != last) {
        ok = false;
      }
    }
    if (ok) {
      com_structured[c] = 1;
      com_first[c] = first;
      com_penult[c] = penult;
      com_last[c] = last;
    }
  }
  // Middle segment (everything between the shared first link and shared
  // last two) in CSR form; empty ranges for unstructured commodities' paths.
  mid_off.assign(num_paths + 1, 0);
  mid_links.reserve(total_links);
  for (size_t i = 0; i < num_paths; ++i) {
    if (com_structured[static_cast<size_t>(paths[i].commodity)]) {
      for (int32_t j = path_off[i] + 1; j < path_off[i + 1] - 2; ++j) {
        mid_links.push_back(path_links[static_cast<size_t>(j)]);
      }
    }
    mid_off[i + 1] = static_cast<int32_t>(mid_links.size());
  }

  // Fully unrolled scan kinds for the controller's dominant commodity shapes
  // (kFast3/kFast1): middles padded to exactly two slots with the sentinel
  // edge (index num_edges, length pinned to 0.0 — adding 0.0 to a positive
  // partial sum is bitwise a no-op under round-to-nearest).
  const int32_t sentinel = static_cast<int32_t>(num_edges);
  com_kind.assign(num_commodities, kGeneric);
  fm_base.assign(num_commodities, -1);
  fast_mids.reserve(2 * num_paths);
  for (size_t c = 0; c < num_commodities; ++c) {
    if (!com_structured[c]) {
      continue;
    }
    com_kind[c] = kStructured;
    const int32_t pcount = cp_off[c + 1] - cp_off[c];
    if (pcount != 3 && pcount != 1) {
      continue;
    }
    bool small = true;
    for (int32_t idx = cp_off[c]; idx < cp_off[c + 1]; ++idx) {
      const int32_t pi = cp_ids[static_cast<size_t>(idx)];
      if (mid_off[pi + 1] - mid_off[pi] > 2) {
        small = false;
        break;
      }
    }
    if (!small) {
      continue;
    }
    com_kind[c] = pcount == 3 ? kFast3 : kFast1;
    fm_base[c] = static_cast<int32_t>(fast_mids.size());
    for (int32_t idx = cp_off[c]; idx < cp_off[c + 1]; ++idx) {
      const int32_t pi = cp_ids[static_cast<size_t>(idx)];
      for (int32_t j = mid_off[pi]; j < mid_off[pi + 1]; ++j) {
        fast_mids.push_back(mid_links[static_cast<size_t>(j)]);
      }
      for (int32_t pad = mid_off[pi + 1] - mid_off[pi]; pad < 2; ++pad) {
        fast_mids.push_back(sentinel);
      }
    }
  }
  // Padded push rows for the fast kinds: every fast path's links as exactly
  // five (link, factor) slots with sentinel slots carrying factor 1.0
  // (0.0 * 1.0 == +0.0, bitwise).
  push5_ids.assign(5 * num_paths, sentinel);
  push5_fac.assign(5 * num_paths, 1.0);
  for (size_t c = 0; c < num_commodities; ++c) {
    if (com_kind[c] != kFast3 && com_kind[c] != kFast1) {
      continue;
    }
    for (int32_t idx = cp_off[c]; idx < cp_off[c + 1]; ++idx) {
      const int32_t pi = cp_ids[static_cast<size_t>(idx)];
      int32_t* ids = push5_ids.data() + 5 * static_cast<size_t>(pi);
      double* fac = push5_fac.data() + 5 * static_cast<size_t>(pi);
      int slot = 0;
      for (int32_t j = path_off[pi]; j < path_off[pi + 1]; ++j, ++slot) {
        // Real width is 3..5; middles shorter than 2 leave sentinel slots in
        // positions 1..2 (already initialized above).
        const int real = path_off[pi + 1] - path_off[pi];
        const int pos = j - path_off[pi];
        const int out = pos == 0 ? 0 : pos >= real - 2 ? pos + (5 - real) : pos;
        ids[out] = path_links[static_cast<size_t>(j)];
        fac[out] = path_factor[static_cast<size_t>(j)];
      }
    }
  }
}

FptasLoopStats RunFptasPushLoop(const FlatMcf& flat, const FptasWorkspace& ws,
                                double epsilon, double delta, int64_t max_pushes,
                                std::vector<double>& length,
                                std::vector<double>& raw_flow) {
  BDS_CHECK(length.size() == ws.num_edges + 1);
  BDS_CHECK(raw_flow.size() == ws.num_paths);
  FptasLoopStats stats;

  const auto& path_off = ws.path_off;
  const auto& path_links = ws.path_links;
  const auto& path_factor = ws.path_factor;
  const auto& path_bneck = ws.path_bneck;
  const auto& cp_off = ws.cp_off;
  const auto& cp_ids = ws.cp_ids;
  constexpr uint8_t kFast3 = FptasWorkspace::kFast3;
  constexpr uint8_t kFast1 = FptasWorkspace::kFast1;
  constexpr uint8_t kStructured = FptasWorkspace::kStructured;

  // cached_min: 0.0 understates any real length and forces a first fresh
  // scan (still a valid lower bound afterwards — lengths only grow).
  std::vector<double> cached_min(ws.num_commodities, 0.0);
  std::vector<int32_t> active;
  active.reserve(ws.num_commodities);
  for (size_t c = 0; c < ws.num_commodities; ++c) {
    if (cp_off[c] != cp_off[c + 1]) {
      active.push_back(static_cast<int32_t>(c));
    }
  }

  int64_t pushes = 0;
  double alpha = delta * static_cast<double>(flat.max_len);
  while (alpha < 1.0 && pushes < max_pushes && !active.empty()) {
    ++stats.phases;
    const double threshold = std::min(1.0, alpha * (1.0 + epsilon));
    size_t out = 0;
    for (size_t k = 0; k < active.size(); ++k) {
      const int32_t c = active[k];
      if (cached_min[static_cast<size_t>(c)] >= threshold) {
        // Provably nothing to push: the cached minimum understates the
        // current one. Retire the commodity if even thresholds of 1 are
        // out of reach.
        ++stats.bound_skips;
        if (cached_min[static_cast<size_t>(c)] < 1.0) {
          active[out++] = c;
        }
        continue;
      }
      bool retired = false;
      const uint8_t kind = ws.com_kind[static_cast<size_t>(c)];
      const size_t cs = static_cast<size_t>(c);
      // Shared push + post-push bound check for the structured kinds (see
      // the commentary in mcf.cc's solver entry point).
      auto push_path = [&](int32_t best) {
        raw_flow[static_cast<size_t>(best)] += path_bneck[static_cast<size_t>(best)];
        for (int32_t j = path_off[best]; j < path_off[best + 1]; ++j) {
          length[static_cast<size_t>(path_links[static_cast<size_t>(j)])] *=
              path_factor[static_cast<size_t>(j)];
        }
      };
      if (kind == kFast3) {
        const double* L = length.data();
        const int32_t f0 = ws.com_first[cs], f1 = ws.com_penult[cs], f2 = ws.com_last[cs];
        const int32_t* fm = ws.fast_mids.data() + ws.fm_base[cs];
        const int32_t p0 = cp_ids[static_cast<size_t>(cp_off[c])];
        const int32_t p1 = cp_ids[static_cast<size_t>(cp_off[c]) + 1];
        const int32_t p2 = cp_ids[static_cast<size_t>(cp_off[c]) + 2];
        for (;;) {
          const double h0 = L[f0], h1 = L[f1], h2 = L[f2];
          double s0 = h0 + L[fm[0]];
          double s1 = h0 + L[fm[2]];
          double s2 = h0 + L[fm[4]];
          s0 += L[fm[1]];
          s1 += L[fm[3]];
          s2 += L[fm[5]];
          s0 += h1;
          s1 += h1;
          s2 += h1;
          s0 += h2;
          s1 += h2;
          s2 += h2;
          double m = s0;
          int32_t best = p0;
          if (s1 < m) {
            m = s1;
            best = p1;
          }
          if (s2 < m) {
            m = s2;
            best = p2;
          }
          if (m >= threshold) {
            cached_min[cs] = m;
            retired = m >= 1.0;
            break;
          }
          raw_flow[static_cast<size_t>(best)] += path_bneck[static_cast<size_t>(best)];
          {
            double* Lw = length.data();
            const int32_t* qi = ws.push5_ids.data() + 5 * static_cast<size_t>(best);
            const double* qf = ws.push5_fac.data() + 5 * static_cast<size_t>(best);
            Lw[qi[0]] *= qf[0];
            Lw[qi[1]] *= qf[1];
            Lw[qi[2]] *= qf[2];
            Lw[qi[3]] *= qf[3];
            Lw[qi[4]] *= qf[4];
          }
          if (++pushes >= max_pushes) {
            break;
          }
          const double lb = L[f2];
          if (lb >= threshold) {
            cached_min[cs] = lb;
            retired = lb >= 1.0;
            ++stats.bound_skips;
            break;
          }
        }
      } else if (kind == kFast1) {
        const double* L = length.data();
        const int32_t f0 = ws.com_first[cs], f1 = ws.com_penult[cs], f2 = ws.com_last[cs];
        const int32_t* fm = ws.fast_mids.data() + ws.fm_base[cs];
        const int32_t p0 = cp_ids[static_cast<size_t>(cp_off[c])];
        for (;;) {
          double s0 = L[f0] + L[fm[0]];
          s0 += L[fm[1]];
          s0 += L[f1];
          s0 += L[f2];
          if (s0 >= threshold) {
            cached_min[cs] = s0;
            retired = s0 >= 1.0;
            break;
          }
          raw_flow[static_cast<size_t>(p0)] += path_bneck[static_cast<size_t>(p0)];
          {
            double* Lw = length.data();
            const int32_t* qi = ws.push5_ids.data() + 5 * static_cast<size_t>(p0);
            const double* qf = ws.push5_fac.data() + 5 * static_cast<size_t>(p0);
            Lw[qi[0]] *= qf[0];
            Lw[qi[1]] *= qf[1];
            Lw[qi[2]] *= qf[2];
            Lw[qi[3]] *= qf[3];
            Lw[qi[4]] *= qf[4];
          }
          if (++pushes >= max_pushes) {
            break;
          }
          const double lb = L[f2];
          if (lb >= threshold) {
            cached_min[cs] = lb;
            retired = lb >= 1.0;
            ++stats.bound_skips;
            break;
          }
        }
      } else {
        const bool structured = kind == kStructured;
        for (;;) {
          // Fresh scan of the commodity's paths, in path then link order —
          // the exact operation sequence (and so the exact doubles) of the
          // reference's rescan. Strict < keeps the first-wins tie-break.
          double m = std::numeric_limits<double>::infinity();
          int32_t best = -1;
          if (structured) {
            const double h0 = length[static_cast<size_t>(ws.com_first[cs])];
            const double h1 = length[static_cast<size_t>(ws.com_penult[cs])];
            const double h2 = length[static_cast<size_t>(ws.com_last[cs])];
            for (int32_t idx = cp_off[c]; idx < cp_off[c + 1]; ++idx) {
              const int32_t pi = cp_ids[static_cast<size_t>(idx)];
              double s = h0;
              for (int32_t j = ws.mid_off[pi]; j < ws.mid_off[pi + 1]; ++j) {
                s += length[static_cast<size_t>(ws.mid_links[static_cast<size_t>(j)])];
              }
              s += h1;
              s += h2;
              if (s < m) {
                m = s;
                best = pi;
              }
            }
          } else {
            for (int32_t idx = cp_off[c]; idx < cp_off[c + 1]; ++idx) {
              const int32_t pi = cp_ids[static_cast<size_t>(idx)];
              double s = 0.0;
              for (int32_t j = path_off[pi]; j < path_off[pi + 1]; ++j) {
                s += length[static_cast<size_t>(path_links[static_cast<size_t>(j)])];
              }
              if (s < m) {
                m = s;
                best = pi;
              }
            }
          }
          if (m >= threshold) {
            cached_min[cs] = m;
            retired = m >= 1.0;
            break;
          }
          push_path(best);
          if (++pushes >= max_pushes) {
            break;
          }
          if (structured) {
            const double lb = length[static_cast<size_t>(ws.com_last[cs])];
            if (lb >= threshold) {
              cached_min[cs] = lb;
              retired = lb >= 1.0;
              ++stats.bound_skips;
              break;
            }
          }
        }
      }
      if (!retired) {
        active[out++] = c;
      }
      if (pushes >= max_pushes) {
        for (size_t k2 = k + 1; k2 < active.size(); ++k2) {
          active[out++] = active[k2];
        }
        break;
      }
    }
    active.resize(out);
    alpha *= 1.0 + epsilon;
  }

  stats.pushes = pushes;
  stats.commodities_retired = static_cast<int64_t>(ws.num_commodities - active.size());
  return stats;
}

}  // namespace mcf_internal
}  // namespace bds

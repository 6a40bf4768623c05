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
  // How many path slots cross each edge: a demand edge is private to its
  // commodity when its paths are all that cross it.
  std::vector<int32_t> edge_uses(num_edges, 0);
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
      ++edge_uses[static_cast<size_t>(l)];
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

  // Pack every commodity of the controller's shape (see PackedCommodity).
  // A push writes each slot's scan-time length times its factor, so a
  // path's real slot links must be distinct; the demand edge's length lives
  // in the record, so no other commodity may cross it.
  const int32_t pad_zero = static_cast<int32_t>(num_edges);
  const int32_t pad_inf = static_cast<int32_t>(num_edges) + 1;
  com_record.assign(num_commodities, -1);
  packed.reserve(num_commodities);
  for (size_t c = 0; c < num_commodities; ++c) {
    const int32_t pcount = cp_off[c + 1] - cp_off[c];
    if (pcount == 0) {
      continue;
    }
    PackedCommodity rec;
    bool ok = pcount <= 3;
    for (int32_t k = 0; ok && k < pcount; ++k) {
      const int32_t pi = cp_ids[static_cast<size_t>(cp_off[c] + k)];
      const int32_t b = path_off[pi], e = path_off[pi + 1];
      if (e - b < 3 || e - b > 5) {
        ok = false;
        break;
      }
      const int32_t* links = path_links.data() + b;
      const int32_t n = e - b;
      if (k == 0) {
        rec.first = links[0];
        rec.penult = links[n - 2];
        rec.last = links[n - 1];
      } else if (links[0] != rec.first || links[n - 2] != rec.penult ||
                 links[n - 1] != rec.last) {
        ok = false;
        break;
      }
      for (int32_t x = 0; ok && x < n; ++x) {
        for (int32_t y = x + 1; y < n; ++y) {
          if (links[x] == links[y]) {
            ok = false;
            break;
          }
        }
      }
      // Slots first, mid, mid, penultimate, last; a short middle leaves
      // 0.0-pad slots with factor 1.0 (0.0 * 1.0 == +0.0).
      rec.path[k] = pi;
      rec.bneck[k] = path_bneck[static_cast<size_t>(pi)];
      const double* fac = path_factor.data() + b;
      rec.mid[2 * k] = n > 3 ? links[1] : pad_zero;
      rec.mid[2 * k + 1] = n > 4 ? links[2] : pad_zero;
      rec.fac[k][0] = fac[0];
      rec.fac[k][1] = n > 3 ? fac[1] : 1.0;
      rec.fac[k][2] = n > 4 ? fac[2] : 1.0;
      rec.fac[k][3] = fac[n - 2];
      rec.fac[k][4] = fac[n - 1];
    }
    if (!ok || edge_uses[static_cast<size_t>(rec.last)] != pcount) {
      ++generic_commodities;
      continue;
    }
    for (int32_t k = pcount; k < 3; ++k) {
      rec.mid[2 * k] = pad_inf;
      rec.mid[2 * k + 1] = pad_zero;
    }
    com_record[c] = static_cast<int32_t>(packed.size());
    packed.push_back(rec);
  }
}

std::vector<double> InitialLengths(const FlatMcf& flat, double delta) {
  const size_t num_edges = flat.num_edges();
  std::vector<double> length(num_edges + 2, 0.0);
  for (size_t l = 0; l < num_edges; ++l) {
    length[l] = delta / flat.cap[l];
  }
  length[num_edges + 1] = std::numeric_limits<double>::infinity();
  return length;
}

FptasLoopStats RunFptasPushLoop(const FlatMcf& flat, FptasWorkspace& ws, double epsilon,
                                double delta, int64_t max_pushes, std::vector<double>& length,
                                std::vector<double>& raw_flow) {
  BDS_CHECK(length.size() == ws.num_edges + 2);
  BDS_CHECK(raw_flow.size() == ws.num_paths);
  FptasLoopStats stats;

  const auto& path_off = ws.path_off;
  const auto& path_links = ws.path_links;
  const auto& path_factor = ws.path_factor;
  const auto& path_bneck = ws.path_bneck;
  const auto& cp_off = ws.cp_off;
  const auto& cp_ids = ws.cp_ids;
  for (PackedCommodity& r : ws.packed) {
    r.len_last = length[static_cast<size_t>(r.last)];
    r.flow[0] = r.flow[1] = r.flow[2] = 0.0;
  }

  // The commodities still in play, in commodity order, each with what a
  // visit reads first: its cached minimum path length and where its scan
  // starts (a packed record index, or ~c for commodity c's CSR scan). A
  // minimum of 0.0 understates any real length and forces a first fresh
  // scan (still a valid lower bound afterwards — lengths only grow).
  struct Active {
    double min_len;
    int32_t ref;
  };
  std::vector<Active> active;
  active.reserve(ws.num_commodities);
  for (size_t c = 0; c < ws.num_commodities; ++c) {
    if (cp_off[c] != cp_off[c + 1]) {
      const int32_t rec = ws.com_record[c];
      active.push_back({0.0, rec >= 0 ? rec : ~static_cast<int32_t>(c)});
    }
  }

  int64_t pushes = 0;
  double alpha = delta * static_cast<double>(flat.max_len);
  while (alpha < 1.0 && pushes < max_pushes && !active.empty()) {
    ++stats.phases;
    const double threshold = std::min(1.0, alpha * (1.0 + epsilon));
    size_t out = 0;
    for (size_t k = 0; k < active.size(); ++k) {
      Active e = active[k];
      if (e.min_len >= threshold) {
        // Provably nothing to push: the cached minimum understates the
        // current one. Retire the commodity if even thresholds of 1 are
        // out of reach.
        ++stats.bound_skips;
        if (e.min_len < 1.0) {
          active[out++] = e;
        }
        continue;
      }
      bool retired = false;
      if (e.ref >= 0) {
        // Packed scan: the nine slot lengths once, path sums in link order
        // (pads add +0.0 or make a missing path +inf), then a first-wins
        // strict-< argmin — the bits of the plain scan below.
        PackedCommodity& r = ws.packed[static_cast<size_t>(e.ref)];
        double* L = length.data();
        for (;;) {
          const double h0 = L[r.first], h1 = L[r.penult], h2 = r.len_last;
          const double a0 = L[r.mid[0]], b0 = L[r.mid[1]];
          const double a1 = L[r.mid[2]], b1 = L[r.mid[3]];
          const double a2 = L[r.mid[4]], b2 = L[r.mid[5]];
          double s0 = h0 + a0;
          double s1 = h0 + a1;
          double s2 = h0 + a2;
          s0 += b0;
          s1 += b1;
          s2 += b2;
          s0 += h1;
          s1 += h1;
          s2 += h1;
          s0 += h2;
          s1 += h2;
          s2 += h2;
          double m = s0;
          int best = 0;
          best = s1 < m ? 1 : best;
          m = s1 < m ? s1 : m;
          best = s2 < m ? 2 : best;
          m = s2 < m ? s2 : m;
          if (m >= threshold) {
            e.min_len = m;
            retired = m >= 1.0;
            break;
          }
          // The path's real slot links are distinct, so every loaded length
          // is still current: write it times its factor. Its middle lengths
          // are selected, not read back from an array indexed by `best`: that
          // stack round trip made the loop ~1.5× slower.
          const double a = best == 0 ? a0 : best == 1 ? a1 : a2;
          const double b = best == 0 ? b0 : best == 1 ? b1 : b2;
          const double* f = r.fac[best];
          r.flow[best] += r.bneck[best];
          L[r.first] = h0 * f[0];
          L[r.mid[2 * best]] = a * f[1];
          L[r.mid[2 * best + 1]] = b * f[2];
          L[r.penult] = h1 * f[3];
          r.len_last = h2 * f[4];
          if (++pushes >= max_pushes) {
            break;
          }
          // Every path ends on the demand edge, so its length bounds the
          // new minimum from below and can prove the rescan futile.
          if (r.len_last >= threshold) {
            e.min_len = r.len_last;
            retired = r.len_last >= 1.0;
            ++stats.bound_skips;
            break;
          }
        }
      } else {
        const int32_t c = ~e.ref;
        for (;;) {
          // Fresh scan of the commodity's paths, in path then link order —
          // the exact operation sequence (and so the exact doubles) of the
          // reference's rescan. Strict < keeps the first-wins tie-break.
          double m = std::numeric_limits<double>::infinity();
          int32_t best = -1;
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
          if (m >= threshold) {
            e.min_len = m;
            retired = m >= 1.0;
            break;
          }
          raw_flow[static_cast<size_t>(best)] += path_bneck[static_cast<size_t>(best)];
          for (int32_t j = path_off[best]; j < path_off[best + 1]; ++j) {
            length[static_cast<size_t>(path_links[static_cast<size_t>(j)])] *=
                path_factor[static_cast<size_t>(j)];
          }
          if (++pushes >= max_pushes) {
            break;
          }
        }
      }
      if (!retired) {
        active[out++] = e;
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

  // Every exit, the push cap's included, lands here: hand the records'
  // state back to the caller's arrays.
  for (const PackedCommodity& r : ws.packed) {
    length[static_cast<size_t>(r.last)] = r.len_last;
    for (int k = 0; k < 3 && r.path[k] >= 0; ++k) {
      raw_flow[static_cast<size_t>(r.path[k])] += r.flow[k];
    }
  }

  stats.pushes = pushes;
  stats.commodities_retired = static_cast<int64_t>(ws.num_commodities - active.size());
  return stats;
}

}  // namespace mcf_internal
}  // namespace bds

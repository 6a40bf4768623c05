#include "tests/oracles.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/status.h"
#include "src/lp/mcf_internal.h"

namespace bds {

McfResult SolveMcfFptasReference(const McfInstance& instance, double epsilon) {
  BDS_CHECK_MSG(epsilon > 0.0 && epsilon <= 0.5, "epsilon must be in (0, 0.5]");
  McfResult result = mcf_internal::MakeEmptyFptasResult(instance);
  const mcf_internal::FlatMcf flat = mcf_internal::FlattenMcf(instance);
  const std::vector<double>& cap = flat.cap;
  const std::vector<mcf_internal::FlatPath>& paths = flat.paths;
  result.ok = true;
  if (paths.empty()) {
    return result;  // Nothing can flow.
  }

  const size_t num_edges = flat.num_edges();
  const double delta = mcf_internal::FptasDelta(flat, epsilon);
  std::vector<double> length(num_edges);
  for (size_t l = 0; l < num_edges; ++l) {
    length[l] = delta / cap[l];
  }
  std::vector<double> raw_flow(paths.size(), 0.0);

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
  const int64_t max_pushes = mcf_internal::MaxPushes(flat, epsilon, delta);
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

  mcf_internal::FinalizeFptas(flat, epsilon, delta, raw_flow, result);
  return result;
}

void AllocateReference(const std::vector<Rate>& capacities, std::vector<Flow*>& flows) {
  size_t num_links = capacities.size();
  std::vector<Rate> residual(num_links, 0.0);
  for (size_t l = 0; l < num_links; ++l) {
    residual[l] = std::max(0.0, capacities[l]);
  }

  // --- Phase 1: pinned flows. ---
  // Start each at its pinned rate, then repeatedly scale down the flows
  // crossing the most oversubscribed link until everything fits.
  std::vector<Flow*> pinned;
  std::vector<Flow*> fair;
  for (Flow* f : flows) {
    if (f->completed()) {
      f->current_rate = 0.0;
      continue;
    }
    if (f->pinned()) {
      f->current_rate = f->pinned_rate;
      pinned.push_back(f);
    } else {
      f->current_rate = 0.0;
      fair.push_back(f);
    }
  }

  if (!pinned.empty()) {
    // Fixed-point: find the worst oversubscription factor and shrink the
    // flows on that link. Each iteration permanently satisfies one link, so
    // this terminates in at most num_links rounds.
    std::vector<Rate> load(num_links, 0.0);
    for (int round = 0; round < static_cast<int>(num_links) + 1; ++round) {
      std::fill(load.begin(), load.end(), 0.0);
      for (Flow* f : pinned) {
        for (LinkId l : f->links) {
          load[static_cast<size_t>(l)] += f->current_rate;
        }
      }
      double worst_factor = 1.0;
      size_t worst_link = num_links;
      for (size_t l = 0; l < num_links; ++l) {
        if (load[l] > residual[l] * (1.0 + kFluidEpsilon) && load[l] > 0.0) {
          double factor = residual[l] / load[l];
          if (factor < worst_factor) {
            worst_factor = factor;
            worst_link = l;
          }
        }
      }
      if (worst_link == num_links) {
        break;  // Feasible.
      }
      for (Flow* f : pinned) {
        for (LinkId l : f->links) {
          if (static_cast<size_t>(l) == worst_link) {
            f->current_rate *= worst_factor;
            break;
          }
        }
      }
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

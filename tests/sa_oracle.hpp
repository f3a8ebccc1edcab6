// Simulated-annealing (SA) co-placement search, kept test-side only as an
// oracle for place::PlacementOptimizer's deterministic descent.
//
// A seeded random walk over the joint assignment, remembering its best
// state: each step proposes one move — re-root one job at a random switch
// (40%), re-embed one job at its cheapest root (40%), or swap two jobs'
// roots (20%) — embedded under the other jobs' heat, and accepts it by the
// Metropolis test with the temperature scaled by the starting objective
// and cooled geometrically.  It scores assignments with the optimizer's
// own place::placement_objective, so the two searches' results are
// directly comparable.
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "place/optimizer.hpp"

namespace flare::testing {

struct SaOptions {
  u64 seed = 0xC0F1ACEull;
  u32 iterations = 600;
  f64 initial_temp = 1.0;  ///< relative to the starting objective
  f64 cooling = 0.995;     ///< temp *= cooling after every step
  f64 heat_exponent = 2.0;
};

/// The lowest objective SA visits starting from `snap`'s assignment.
inline f64 sa_best_objective(net::Network& net,
                             const place::CostSnapshot& snap,
                             const SaOptions& opt = {}) {
  const std::vector<place::JobView>& jobs = snap.jobs();
  const u32 num_jobs = static_cast<u32>(jobs.size());
  std::vector<f64> heat;
  coll::NetworkManager manager(net);
  manager.set_link_cost([&net, &heat](net::NodeId node, u32 port) {
    f64 worst = 0.0;
    net::Link* const fwd = &net.node(node).port(port);
    for (const net::Link* link : {fwd, fwd->reverse()}) {
      if (link != nullptr && link->index() < heat.size()) {
        worst = std::max(worst, heat[link->index()]);
      }
    }
    return 1.0 + net::kUtilizationWeight * worst;
  });

  struct State {
    std::vector<net::NodeId> roots;
    std::vector<std::vector<u32>> links;
    std::vector<f64> load;
  };
  State st;
  for (const place::JobView& jv : jobs) {
    st.roots.push_back(jv.tree.root);
    st.links.push_back(jv.links);
  }
  // Per-link load: background plus every crossing job's weight.
  const auto rebuild_load = [&](State& s) {
    s.load = snap.background();
    for (u32 j = 0; j < num_jobs; ++j) {
      for (const u32 l : s.links[j]) s.load[l] += jobs[j].weight;
    }
  };
  rebuild_load(st);
  const auto cost = [&](const State& s) {
    return place::placement_objective(snap, s.links, s.load,
                                      opt.heat_exponent);
  };
  // Heat for embedding job j: the load less j's own weight on its links.
  const auto heat_without = [&](const State& s, u32 j) {
    heat.resize(s.load.size());
    for (std::size_t i = 0; i < s.load.size(); ++i) {
      heat[i] = std::max(0.0, s.load[i]);
    }
    for (const u32 i : s.links[j]) {
      heat[i] = std::max(0.0, s.load[i] - jobs[j].weight);
    }
  };
  const auto assign = [&](State& s, u32 j,
                          const std::optional<coll::ReductionTree>& t) {
    s.roots[j] = t->root;
    s.links[j] = snap.tree_links(*t);
  };

  f64 cur = cost(st);
  if (num_jobs == 0) return cur;
  f64 best = cur;
  const f64 scale = std::max(cur, 1e-12);
  const std::vector<net::Switch*>& sws = net.switches();
  Rng rng(opt.seed);
  f64 temp = opt.initial_temp;
  for (u32 step = 0; step < opt.iterations; ++step, temp *= opt.cooling) {
    State cand = st;
    const u64 kind = rng.uniform_u64(10);
    if (kind < 4) {
      const u32 j = static_cast<u32>(rng.uniform_u64(num_jobs));
      const net::NodeId root = sws[rng.uniform_u64(sws.size())]->id();
      heat_without(cand, j);
      const auto t = manager.compute_tree(jobs[j].participants, root);
      if (!t) continue;
      assign(cand, j, t);
    } else if (kind < 8 || num_jobs < 2) {
      const u32 j = static_cast<u32>(rng.uniform_u64(num_jobs));
      heat_without(cand, j);
      const auto t = manager.cheapest_tree(jobs[j].participants);
      if (!t) continue;
      assign(cand, j, t);
    } else {
      const u32 a = static_cast<u32>(rng.uniform_u64(num_jobs));
      u32 b = static_cast<u32>(rng.uniform_u64(num_jobs - 1));
      if (b >= a) ++b;
      heat_without(cand, a);
      const auto ta = manager.compute_tree(jobs[a].participants, st.roots[b]);
      heat_without(cand, b);
      const auto tb = manager.compute_tree(jobs[b].participants, st.roots[a]);
      if (!ta || !tb) continue;
      assign(cand, a, ta);
      assign(cand, b, tb);
    }
    rebuild_load(cand);
    const f64 c = cost(cand);
    const f64 delta = c - cur;
    if (delta >= 0.0 &&
        rng.uniform() >= std::exp(-delta / (temp * scale))) {
      continue;
    }
    st = std::move(cand);
    cur = c;
    best = std::min(best, cur);
  }
  return best;
}

}  // namespace flare::testing

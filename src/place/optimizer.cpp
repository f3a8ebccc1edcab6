#include "place/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.hpp"

namespace flare::place {

namespace {

/// Metropolis guard: temperatures decay geometrically toward 0; below this
/// any uphill move is simply rejected (exp underflows anyway).
constexpr f64 kMinTemp = 1e-12;

bool same_embedding(const coll::ReductionTree& a, const coll::ReductionTree& b) {
  if (a.root != b.root || a.switches.size() != b.switches.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.switches.size(); ++i) {
    const coll::TreeSwitchEntry& x = a.switches[i];
    const coll::TreeSwitchEntry& y = b.switches[i];
    if (x.sw != y.sw || x.parent_port != y.parent_port ||
        x.child_ports != y.child_ports) {
      return false;
    }
  }
  return true;
}

}  // namespace

/// SA working state: one candidate assignment of the whole fleet.
struct PlacementOptimizer::State {
  std::vector<coll::ReductionTree> trees;  ///< per job (snapshot order)
  std::vector<std::vector<u32>> links;     ///< per job, sorted
  std::vector<f64> load;                   ///< per link (rebuild_load)
  f64 total_bytes = 0.0;
};

PlacementOptimizer::PlacementOptimizer(net::Network& net, OptimizerOptions opt)
    : net_(net), opt_(opt), manager_(net) {
  manager_.set_link_cost([this](net::NodeId node, u32 port) {
    // Worst heat across both directions of the duplex edge behind
    // (node, port) — the offline analogue of CongestionMonitor::edge_cost
    // over edge_congestion_excluding.  Links outside the snapshot fabric
    // read cold.
    f64 worst = 0.0;
    net::Link* const fwd = &net_.node(node).port(port);
    for (const net::Link* link : {fwd, fwd->reverse()}) {
      if (link != nullptr && link->index() < heat_.size()) {
        worst = std::max(worst, heat_[link->index()]);
      }
    }
    return 1.0 + net::kUtilizationWeight * worst;
  });
}

void PlacementOptimizer::set_heat(const std::vector<f64>& load,
                                  const std::vector<u32>& exclude,
                                  f64 weight) {
  heat_.resize(load.size());
  for (std::size_t i = 0; i < load.size(); ++i) {
    heat_[i] = std::max(0.0, load[i]);
  }
  for (const u32 i : exclude) heat_[i] = std::max(0.0, load[i] - weight);
}

std::optional<coll::ReductionTree> PlacementOptimizer::tree_for(
    const CostSnapshot& snap, State& st, u32 j, net::NodeId root) {
  set_heat(st.load, st.links[j], snap.jobs()[j].weight);
  return manager_.compute_tree(snap.jobs()[j].participants, root);
}

std::optional<coll::ReductionTree> PlacementOptimizer::cheapest_tree(
    const CostSnapshot& snap, State& st, u32 j) {
  set_heat(st.load, st.links[j], snap.jobs()[j].weight);
  return manager_.cheapest_tree(snap.jobs()[j].participants);
}

f64 PlacementOptimizer::objective(const CostSnapshot& snap,
                                  const State& st) const {
  f64 worst = 0.0;
  for (const f64 l : st.load) worst = std::max(worst, l);
  const std::vector<JobView>& jobs = snap.jobs();
  f64 sum_est = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    f64 hot = 0.0;  // foreign heat: load minus the job's own weight
    for (const u32 l : st.links[j]) {
      hot = std::max(hot, std::max(0.0, st.load[l] - jobs[j].weight));
    }
    const f64 share =
        st.total_bytes > 0.0
            ? static_cast<f64>(jobs[j].data_bytes) / st.total_bytes
            : 1.0 / static_cast<f64>(jobs.size());
    sum_est += share * std::exp(opt_.heat_exponent * hot);
  }
  return (1.0 + worst) * sum_est;
}

PlacementPlan PlacementOptimizer::optimize(const CostSnapshot& snap) {
  PlacementPlan plan;
  const std::vector<JobView>& jobs = snap.jobs();
  const u32 num_jobs = static_cast<u32>(jobs.size());

  State st;
  st.trees.reserve(num_jobs);
  st.links.reserve(num_jobs);
  for (const JobView& jv : jobs) {
    st.trees.push_back(jv.tree);
    st.links.push_back(jv.links);
    st.total_bytes += static_cast<f64>(jv.data_bytes);
  }
  const auto rebuild_load = [&snap](State& s) {
    s.load = snap.background();
    for (std::size_t j = 0; j < s.links.size(); ++j) {
      for (const u32 l : s.links[j]) s.load[l] += snap.jobs()[j].weight;
    }
  };
  rebuild_load(st);
  plan.cost_before = objective(snap, st);
  plan.cost_after = plan.cost_before;
  if (num_jobs == 0) return plan;

  State best = st;
  f64 cur_obj = plan.cost_before;
  f64 best_obj = cur_obj;
  // Metropolis temperatures are RELATIVE: scale by the starting objective
  // so `initial_temp` means "fraction of cost_before an uphill move may
  // cost and still be ~e^-1 acceptable", independent of fleet size.
  const f64 scale = std::max(plan.cost_before, 1e-12);
  Rng rng(opt_.seed);
  f64 temp = opt_.initial_temp;
  const std::vector<net::Switch*>& sws = net_.switches();

  for (u32 step = 0; step < opt_.iterations; ++step, temp *= opt_.cooling) {
    ++plan.sa_iterations;
    State cand = st;
    bool moved = false;
    // Move mix: 0.4 random re-root (exploration), 0.4 cheapest re-embed
    // excluding own heat (exploitation), 0.2 swap two jobs' roots (escapes
    // the pairwise local optima greedy sequences land in).
    const u64 kind = rng.uniform_u64(10);
    if (kind < 4) {
      const u32 j = static_cast<u32>(rng.uniform_u64(num_jobs));
      net::Switch* sw = sws[rng.uniform_u64(sws.size())];
      std::optional<coll::ReductionTree> t = tree_for(snap, cand, j, sw->id());
      if (t) {
        cand.links[j] = snap.tree_links(*t);
        cand.trees[j] = std::move(*t);
        moved = true;
      }
    } else if (kind < 8 || num_jobs < 2) {
      const u32 j = static_cast<u32>(rng.uniform_u64(num_jobs));
      std::optional<coll::ReductionTree> t = cheapest_tree(snap, cand, j);
      if (t) {
        cand.links[j] = snap.tree_links(*t);
        cand.trees[j] = std::move(*t);
        moved = true;
      }
    } else {
      const u32 a = static_cast<u32>(rng.uniform_u64(num_jobs));
      u32 b = static_cast<u32>(rng.uniform_u64(num_jobs - 1));
      if (b >= a) ++b;
      const net::NodeId root_a = cand.trees[a].root;
      const net::NodeId root_b = cand.trees[b].root;
      std::optional<coll::ReductionTree> ta = tree_for(snap, cand, a, root_b);
      std::optional<coll::ReductionTree> tb = tree_for(snap, cand, b, root_a);
      if (ta && tb) {
        cand.links[a] = snap.tree_links(*ta);
        cand.trees[a] = std::move(*ta);
        cand.links[b] = snap.tree_links(*tb);
        cand.trees[b] = std::move(*tb);
        moved = true;
      }
    }
    if (!moved) continue;  // infeasible proposal; rng state still advanced

    ++plan.proposed;
    rebuild_load(cand);
    const f64 cand_obj = objective(snap, cand);
    const f64 delta = cand_obj - cur_obj;
    const bool accept =
        delta < 0.0 ||
        (temp > kMinTemp &&
         rng.uniform() < std::exp(-delta / (temp * scale)));
    if (!accept) continue;
    st = std::move(cand);
    cur_obj = cand_obj;
    ++plan.accepted;
    if (cur_obj < best_obj) {
      best = st;
      best_obj = cur_obj;
    }
  }

  plan.cost_after = best_obj;
  // Extract per-job moves from the best assignment.  predicted_gain is the
  // leave-one-out improvement: revert THIS job to its snapshot embedding,
  // keep every other planned move — what the fabric loses if just this
  // move is skipped.  Jobs whose reverted objective is no worse are not
  // real moves (an SA artifact) and are dropped here, not by hysteresis.
  for (u32 j = 0; j < num_jobs; ++j) {
    if (same_embedding(best.trees[j], jobs[j].tree)) continue;
    State reverted = best;
    reverted.trees[j] = jobs[j].tree;
    reverted.links[j] = jobs[j].links;
    rebuild_load(reverted);
    const f64 obj_reverted = objective(snap, reverted);
    if (obj_reverted <= best_obj) continue;
    PlannedMove mv;
    mv.job_id = jobs[j].job_id;
    mv.old_root = jobs[j].tree.root;
    mv.new_root = best.trees[j].root;
    mv.tree = best.trees[j];
    mv.predicted_gain = (obj_reverted - best_obj) / obj_reverted;
    plan.moves.push_back(std::move(mv));
  }
  return plan;  // moves ascend job_id (jobs() is sorted)
}

f64 PlacementOptimizer::admission_score(
    const CostSnapshot& snap, const std::vector<net::Host*>& participants) {
  // Fleet-wide frozen load with nothing excluded: the queued job is purely
  // marginal.
  std::vector<f64> load = snap.background();
  for (const JobView& jv : snap.jobs()) {
    for (const u32 l : jv.links) load[l] += jv.weight;
  }
  set_heat(load, {}, 0.0);
  const std::optional<coll::ReductionTree> best =
      manager_.cheapest_tree(participants);
  if (!best) return std::numeric_limits<f64>::infinity();
  f64 score = 0.0;
  for (const u32 l : snap.tree_links(*best)) {
    score = std::max(score, load[l] + kColdStartWeight);
  }
  return score;
}

u32 filter_moves(PlacementPlan& plan, f64 min_gain) {
  const auto keep_end =
      std::remove_if(plan.moves.begin(), plan.moves.end(),
                     [min_gain](const PlannedMove& m) {
                       return m.predicted_gain < min_gain;
                     });
  const u32 dropped =
      static_cast<u32>(std::distance(keep_end, plan.moves.end()));
  plan.moves.erase(keep_end, plan.moves.end());
  return dropped;
}

bool tree_conflicts(const coll::ReductionTree& tree,
                    const std::vector<net::NodeId>& sorted_targets) {
  for (const coll::TreeSwitchEntry& e : tree.switches) {
    if (std::binary_search(sorted_targets.begin(), sorted_targets.end(),
                           e.sw->id())) {
      return true;
    }
  }
  return false;
}

}  // namespace flare::place

#include "place/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

namespace flare::place {

/// Descent working state: the one assignment of the whole fleet, edited in
/// place.
struct PlacementOptimizer::State {
  std::vector<coll::ReductionTree> trees;  ///< per job (snapshot order)
  std::vector<std::vector<u32>> links;     ///< per job, sorted
  std::vector<f64> load;                   ///< per link, from `links`
  f64 cost = 0.0;                          ///< objective of this assignment
  std::vector<u32> touched;                ///< relink scratch

  /// Gives job `j` the link set `next` and returns its former one.  Only
  /// links whose crossing set changed are recomputed, each from its
  /// background in ascending job order, so `load` stays bit-identical to
  /// a full rebuild.
  std::vector<u32> relink(const CostSnapshot& snap, u32 j,
                          std::vector<u32> next) {
    touched.clear();
    std::set_symmetric_difference(links[j].begin(), links[j].end(),
                                  next.begin(), next.end(),
                                  std::back_inserter(touched));
    std::vector<u32> prev = std::exchange(links[j], std::move(next));
    for (const u32 l : touched) {
      f64 v = snap.background()[l];
      for (std::size_t k = 0; k < links.size(); ++k) {
        if (std::binary_search(links[k].begin(), links[k].end(), l)) {
          v += snap.jobs()[k].weight;
        }
      }
      load[l] = v;
    }
    return prev;
  }
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

std::optional<PlacementOptimizer::Candidate> PlacementOptimizer::best_tree(
    const CostSnapshot& snap, State& st, u32 j, PlacementPlan& plan) {
  const JobView& job = snap.jobs()[j];
  set_heat(st.load, st.links[j], job.weight);
  ++plan.root_sweeps;
  std::vector<coll::ReductionTree> trees =
      manager_.ranked_trees(job.participants);
  std::optional<Candidate> best;
  std::vector<u32> prev = st.links[j];
  std::vector<u32> last;  // ranked order puts equal embeddings side by side
  for (coll::ReductionTree& t : trees) {
    std::vector<u32> links = snap.tree_links(t);
    if (links == prev || links == last) continue;
    ++plan.proposed;
    last = links;
    st.relink(snap, j, std::move(links));
    const f64 cost =
        placement_objective(snap, st.links, st.load, opt_.heat_exponent);
    if (!best || cost < best->cost) best = Candidate{cost, std::move(t)};
  }
  st.relink(snap, j, std::move(prev));
  return best;
}

bool PlacementOptimizer::pair_escape(const CostSnapshot& snap, State& st,
                                     PlacementPlan& plan) {
  const u32 num_jobs = static_cast<u32>(snap.jobs().size());
  // The hottest link some job crosses: a link only background heats
  // cannot be cooled by moving jobs.
  u32 hottest = UINT32_MAX;
  for (const std::vector<u32>& links : st.links) {
    for (const u32 l : links) {
      if (hottest == UINT32_MAX || st.load[l] > st.load[hottest]) hottest = l;
    }
  }
  for (u32 a = 0; a < num_jobs; ++a) {
    if (!std::binary_search(st.links[a].begin(), st.links[a].end(),
                            hottest)) {
      continue;
    }
    for (u32 b = 0; b < num_jobs; ++b) {
      if (b == a) continue;
      std::vector<u32> prev_a = st.relink(snap, a, {});
      std::vector<u32> prev_b = st.relink(snap, b, {});
      std::optional<Candidate> ca = best_tree(snap, st, a, plan);
      std::optional<Candidate> cb;
      if (ca) {
        st.relink(snap, a, snap.tree_links(ca->tree));
        cb = best_tree(snap, st, b, plan);
      }
      if (cb && cb->cost < st.cost) {
        st.relink(snap, b, snap.tree_links(cb->tree));
        st.trees[a] = std::move(ca->tree);
        st.trees[b] = std::move(cb->tree);
        st.cost = cb->cost;
        return true;
      }
      st.relink(snap, a, std::move(prev_a));
      st.relink(snap, b, std::move(prev_b));
    }
  }
  return false;
}

PlacementPlan PlacementOptimizer::optimize(const CostSnapshot& snap) {
  PlacementPlan plan;
  const std::vector<JobView>& jobs = snap.jobs();
  const u32 num_jobs = static_cast<u32>(jobs.size());

  State st;
  st.links.resize(num_jobs);
  st.load = snap.background();
  for (u32 j = 0; j < num_jobs; ++j) {  // in job order, as a rebuild sums
    st.trees.push_back(jobs[j].tree);
    st.relink(snap, j, jobs[j].links);
  }
  st.cost = placement_objective(snap, st.links, st.load, opt_.heat_exponent);
  plan.cost_before = st.cost;
  while (num_jobs > 0 && plan.passes < opt_.iterations) {
    ++plan.passes;  // single-job pass: each job to its best tree
    bool moved = false;
    for (u32 j = 0; j < num_jobs; ++j) {
      std::optional<Candidate> c = best_tree(snap, st, j, plan);
      if (!c || c->cost >= st.cost) continue;
      st.relink(snap, j, snap.tree_links(c->tree));
      st.trees[j] = std::move(c->tree);
      st.cost = c->cost;
      moved = true;
    }
    if (!moved && !pair_escape(snap, st, plan)) break;
  }
  plan.cost_after = st.cost;

  // Extract per-job moves.  predicted_gain is the leave-one-out
  // improvement: revert THIS job to its snapshot embedding, keep every
  // other planned move — what the fabric loses if just this move is
  // skipped.  Jobs whose reverted objective is no worse are not real moves
  // and are dropped here, not by hysteresis.
  for (u32 j = 0; j < num_jobs; ++j) {
    if (st.links[j] == jobs[j].links) continue;  // reverting changes nothing
    std::vector<u32> moved = st.relink(snap, j, jobs[j].links);
    const f64 obj_reverted =
        placement_objective(snap, st.links, st.load, opt_.heat_exponent);
    st.relink(snap, j, std::move(moved));
    if (obj_reverted <= st.cost) continue;
    PlannedMove mv;
    mv.job_id = jobs[j].job_id;
    mv.old_root = jobs[j].tree.root;
    mv.new_root = st.trees[j].root;
    mv.tree = st.trees[j];
    mv.predicted_gain = (obj_reverted - st.cost) / obj_reverted;
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

f64 placement_objective(const CostSnapshot& snap,
                        const std::vector<std::vector<u32>>& links,
                        const std::vector<f64>& load, f64 heat_exponent) {
  f64 worst = 0.0;
  for (const f64 l : load) worst = std::max(worst, l);
  const std::vector<JobView>& jobs = snap.jobs();
  f64 total_bytes = 0.0;
  for (const JobView& jv : jobs) total_bytes += static_cast<f64>(jv.data_bytes);
  f64 sum_est = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    f64 hot = 0.0;  // foreign heat: load minus the job's own weight
    for (const u32 l : links[j]) {
      hot = std::max(hot, std::max(0.0, load[l] - jobs[j].weight));
    }
    const f64 share = total_bytes > 0.0
                          ? static_cast<f64>(jobs[j].data_bytes) / total_bytes
                          : 1.0 / static_cast<f64>(jobs.size());
    sum_est += share * std::exp(heat_exponent * hot);
  }
  return (1.0 + worst) * sum_est;
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

}  // namespace flare::place

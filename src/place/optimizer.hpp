// PlacementOptimizer: a deterministic descent over the JOINT assignment of
// every active job's embedding (cost shape after SET-ISCA2023's
// cost_f = e^k·d; congestion-aware re-embedding in the spirit of Canary).
//
// Greedy admission embeds one job at a time against whatever heat exists at
// that instant; reactive migration (TreeOpBase::maybe_migrate) fixes one
// job at a time when ITS tree gets hot.  Neither ever reconsiders the fleet
// as a whole, so early tenants pin the spines and late tenants stack onto
// whatever is left.  This optimizer searches the joint space offline,
// against a CostSnapshot's frozen numbers:
//
//   load[l]  = background[l] + Σ_{jobs crossing l} weight_j
//   hot_j    = max_{l ∈ links_j} (load[l] − weight_j)       (foreign heat)
//   est_j    = (bytes_j / Σ bytes) · e^{k·hot_j}            (relative ECT)
//   objective = (1 + max_l load[l]) · Σ_j est_j
//
// i.e. worst-edge congestion × aggregate estimated completion time.  The
// exponential makes a job on a contended edge expensive fast (the
// SET cost_f shape), the (1 + worst) factor keeps the fabric-wide hot spot
// first-class even when the jobs sitting on it are small.
//
// The search starts from the snapshot's embeddings and keeps only strict
// improvements.  A single-job pass moves each job, in snapshot order, to
// its best tree (every root's embedding, scored by the objective — the
// cheapest tree minimizes a SUM of link costs, the objective charges a job
// its HOTTEST link).  Once a pass changes nothing, the pair escape takes
// two jobs out of the load, one of them on the hottest link, and places
// both in turn; the first improving pair resumes the passes.  It is a pure
// function of the snapshot: every tie-break is deterministic.
#pragma once

#include <vector>

#include "place/snapshot.hpp"

namespace flare::place {

struct OptimizerOptions {
  u64 seed = 0xC0F1ACEull;  ///< ignored: kept while perfbench still sets it
  /// Cap on single-job passes: a termination guard.  Every pass but the
  /// last strictly lowers the objective, so it never binds in practice.
  u32 iterations = 600;
  /// k in est_j = share_j · e^{k·hot_j} — how sharply contention inflates a
  /// job's estimated completion time.
  f64 heat_exponent = 2.0;
};

/// One per-job re-embedding the plan asks the service to apply.
struct PlannedMove {
  u32 job_id = 0;
  net::NodeId old_root = net::kInvalidNode;
  net::NodeId new_root = net::kInvalidNode;
  coll::ReductionTree tree;  ///< target embedding (not yet installed)
  /// Fractional objective improvement attributable to THIS move alone:
  /// (objective with this job reverted − final objective) / former.
  /// The hysteresis filter (filter_moves) keys off this.
  f64 predicted_gain = 0.0;
};

struct PlacementPlan {
  f64 cost_before = 0.0;  ///< objective of the as-is assignment
  f64 cost_after = 0.0;   ///< objective of the assignment the descent ends at
  u32 passes = 0;         ///< single-job passes run
  u32 root_sweeps = 0;    ///< best-tree queries (every root's tree built)
  u32 proposed = 0;       ///< candidate embeddings scored by the objective
  /// Jobs whose best embedding differs from the snapshot's, ascending
  /// job_id.  May be empty (as-is assignment already optimal).
  std::vector<PlannedMove> moves;
};

class PlacementOptimizer {
 public:
  PlacementOptimizer(net::Network& net, OptimizerOptions opt);

  /// Runs the descent.  Pure in `snap`: no live telemetry is
  /// read, no switch state is touched (candidate trees are computed, not
  /// installed — capacity is checked at apply time by the migration path).
  PlacementPlan optimize(const CostSnapshot& snap);

  /// Cross-job admission scoring: the MARGINAL worst-edge heat a queued
  /// job would add — max over the cheapest candidate embedding's links of
  /// (load[l] + kColdStartWeight), where load is the frozen fleet-wide
  /// load.  +infinity when no root reaches every participant.  The
  /// service admits the cheapest queued job first instead of strict FIFO.
  f64 admission_score(const CostSnapshot& snap,
                      const std::vector<net::Host*>& participants);

 private:
  struct State;  // descent working state (optimizer.cpp)

  /// Fills heat_ from `load`, less `weight` on the `exclude` links.
  void set_heat(const std::vector<f64>& load,
                const std::vector<u32>& exclude, f64 weight);
  struct Candidate {  // an embedding and the objective it reaches
    f64 cost = 0.0;
    coll::ReductionTree tree;
  };
  /// Job `j`'s best embedding: every root's tree under the other jobs'
  /// heat (ranked_trees: one root sweep), scored by the objective with j
  /// moved onto it, first lowest wins; trees on j's current links are
  /// skipped.  Leaves `st` as it was; nullopt when nothing else spans.
  std::optional<Candidate> best_tree(const CostSnapshot& snap, State& st,
                                     u32 j, PlacementPlan& plan);
  /// Keeps the first improving pair re-embedding; false when none helps.
  bool pair_escape(const CostSnapshot& snap, State& st, PlacementPlan& plan);

  net::Network& net_;
  OptimizerOptions opt_;
  /// Private manager: reuses the deterministic congestion-aware embedding
  /// (ranked_trees, cheapest_tree) against the SNAPSHOT loads via a
  /// link-cost closure reading heat_.  Never installs anything.
  coll::NetworkManager manager_;
  /// Per unidirectional link, the heat the current embedding query costs:
  /// max(0, load - the moving job's own weight on its links).  Filled once
  /// per query; the closure reads the two entries of a duplex edge.
  std::vector<f64> heat_;
};

/// The placement objective (file comment) of the assignment `links` (per
/// job in snapshot order), whose per-link load is `load`: background plus
/// every crossing job's weight.
f64 placement_objective(const CostSnapshot& snap,
                        const std::vector<std::vector<u32>>& links,
                        const std::vector<f64>& load, f64 heat_exponent);

/// Hysteresis: drops plan moves with predicted_gain < min_gain (applying a
/// migration costs a break-before-make install; marginal wins churn the
/// fabric for nothing).  Returns the number of moves dropped.
u32 filter_moves(PlacementPlan& plan, f64 min_gain);

}  // namespace flare::place

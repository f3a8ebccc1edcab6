// CostSnapshot: an immutable, deterministic freeze of the fabric for the
// co-placement search (src/place/optimizer.hpp).
//
// The placement descent scores many candidate assignments; every
// evaluation must read the SAME numbers, or the search objective drifts
// under its own feet and two runs of one snapshot diverge.  freeze()
// therefore copies everything the objective touches out of the live
// CongestionMonitor + NetworkManager state:
//
//   * per unidirectional link, the BACKGROUND heat — the total EWMA
//     utilization minus every active job's own attributed EWMA (the
//     fabric-wide analogue of edge_congestion_excluding: cross-traffic and
//     foreign tenants the optimizer cannot move);
//   * per active job, its current embedding (ReductionTree copy), the link
//     set that embedding crosses, and a scalar traffic weight — the
//     per-edge utilization footprint observed through the job's own
//     per-trace EWMA (a deterministic prior for jobs too young to have
//     registered traffic).
//
// The snapshot never re-reads the monitor after freeze(): two freezes of
// the same calendar instant serialize byte-identically (tested), and the
// whole search is a pure function of the snapshot.
#pragma once

#include <string>
#include <vector>

#include "coll/manager.hpp"
#include "net/telemetry.hpp"

namespace flare::place {

/// Traffic weight charged to a job whose trace has not registered any EWMA
/// yet (admitted this window) and to QUEUED jobs being admission-scored: a
/// persistent training job drives its tree at a sizable duty cycle, and
/// charging newcomers SOMETHING keeps the search from stacking "free" jobs
/// onto one spine.  Replaced by the observed footprint one window later.
constexpr f64 kColdStartWeight = 0.25;

/// One active job as the service hands it to freeze(): identity, traffic
/// attribution tag, and the live embedding.
struct JobInput {
  u32 job_id = 0;
  /// Attribution tag (core::AllreduceConfig::trace) — keys the per-trace
  /// EWMAs that separate this job's heat from the background.
  u32 trace = 0;
  u64 data_bytes = 0;
  std::vector<net::Host*> participants;
  coll::ReductionTree tree;  ///< current (live) embedding
};

/// A job inside the snapshot: the input plus the frozen derived numbers.
struct JobView {
  u32 job_id = 0;
  u32 trace = 0;
  u64 data_bytes = 0;
  /// Per-edge utilization footprint: the worst own-trace EWMA across the
  /// current embedding's links, floored by a cold-start prior.  Candidate
  /// embeddings are charged this same weight on every link they cross.
  f64 weight = 0.0;
  std::vector<net::Host*> participants;
  coll::ReductionTree tree;
  /// Unidirectional link indices the embedding crosses (both directions of
  /// every tree edge; sorted, deduplicated).
  std::vector<u32> links;
};

class CostSnapshot {
 public:
  /// Freezes the fabric at the monitor's LATEST sample (the caller decides
  /// when to sample; freeze() itself never advances the telemetry).
  /// `jobs` may arrive in any order; the snapshot stores them sorted by
  /// job_id so every downstream iteration is deterministic.
  static CostSnapshot freeze(net::Network& net,
                             const net::CongestionMonitor& monitor,
                             std::vector<JobInput> jobs);

  /// Unidirectional link indices `tree` crosses (both directions of every
  /// tree edge; sorted, deduplicated) — the same enumeration freeze() used
  /// for the active jobs, exposed so the optimizer can cost CANDIDATE
  /// embeddings against the frozen loads.
  std::vector<u32> tree_links(const coll::ReductionTree& tree) const;

  /// Unidirectional link index of `link` in the frozen fabric, or
  /// UINT32_MAX when the pointer is unknown (a link added after freeze).
  u32 link_index(const net::Link* link) const {
    return link->index() < num_links() ? link->index() : UINT32_MAX;
  }

  /// Deterministic byte serialization (doubles printed with %.17g — enough
  /// digits to round-trip).  Two freezes of the same calendar instant are
  /// byte-identical; any divergence means nondeterminism leaked in.
  std::string serialize() const;

  SimTime at() const { return at_; }
  u64 epoch() const { return epoch_; }
  u32 num_links() const { return static_cast<u32>(background_.size()); }
  const std::vector<f64>& background() const { return background_; }
  const std::vector<JobView>& jobs() const { return jobs_; }

 private:
  SimTime at_ = 0;
  u64 epoch_ = 0;
  /// Per unidirectional link: EWMA heat the optimizer cannot move
  /// (clamp(total - sum of active jobs' own EWMAs, >= 0)).
  std::vector<f64> background_;
  std::vector<JobView> jobs_;  ///< ascending job_id
};

}  // namespace flare::place

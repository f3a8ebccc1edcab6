// Communicator sessions with persistent collectives — one API for every
// collective the Flare substrate serves.
//
// A Communicator binds a participant group to a net::Network + a
// NetworkManager control plane and executes CollectiveOptions descriptors
// as requests:
//
//   * persistent(desc)   — computes + installs the reduction tree and
//                          switch engines ONCE, then run()/start() executes
//                          iterations against the installed state,
//                          amortizing compute_tree/install across a
//                          training loop (dense inputs are drawn once from
//                          the seed and iteration i rotates them; sparse
//                          epoch gradients use seed + i); the
//                          per-iteration reset clears engine block state
//                          but never touches the admission slot;
//   * start(desc, cb)    — nonblocking one-shot: a one-iteration persistent
//                          request on the SHARED event calendar, whose
//                          install is released as that iteration publishes
//                          (before `cb`); the caller drives net.sim().run()
//                          (possibly with other collectives in flight) and
//                          reads the handle's result() post-drain;
//   * run(desc)          — blocking one-shot: start(), then drive the
//                          calendar to idle and return the result.
//
// The paper's training workloads re-issue the same allreduce every
// iteration (Section 4's network manager installs the tree once per
// communicator); Canary and SparCML (PAPERS.md) motivate the long-lived
// session and per-call algorithm switching this API provides.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "coll/manager.hpp"
#include "coll/op.hpp"
#include "coll/options.hpp"
#include "coll/result.hpp"

namespace flare::coll {

class TreeCache;
class Communicator;

/// Handle to a started (nonblocking) collective.  Cheap to copy; stays
/// valid after the Communicator finishes the operation.
class CollectiveHandle {
 public:
  CollectiveHandle() = default;

  bool valid() const { return state_ != nullptr; }
  bool done() const { return state_ != nullptr && state_->done; }
  /// Valid once done() — typically after draining the event calendar.
  const CollectiveResult& result() const;

 private:
  friend class Communicator;
  friend class PersistentCollective;
  explicit CollectiveHandle(std::shared_ptr<detail::OpState> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::OpState> state_;
};

struct CommunicatorConfig {
  /// Shared control plane (e.g. the service layer's); the Communicator
  /// owns a private manager when null.
  NetworkManager* manager = nullptr;
  /// Optional reduction-tree embedding reuse across sessions.
  TreeCache* cache = nullptr;
  /// Candidate tree roots tried in THIS order (a root-selection policy);
  /// empty -> best-fit retry over every switch.
  std::vector<net::NodeId> roots;
  /// Congestion plane (must outlive the session): embedding turns
  /// congestion-aware — the monitor's edge costs become the link-cost
  /// provider of a PRIVATE manager (a shared `manager` keeps whatever
  /// provider its owner set, so one session can never rewire another's
  /// control plane), the monitor is sampled before each install, and
  /// persistent sessions migrate per Tuning::migrate_above.  Null keeps
  /// the congestion-blind behavior.
  net::CongestionMonitor* monitor = nullptr;
};

/// A persistent collective request: install-once / run-many.  Move-only;
/// releases the installed switch state on destruction (or release()).
class PersistentCollective {
 public:
  PersistentCollective();  // empty (ok() == false) until assigned
  PersistentCollective(PersistentCollective&& other) noexcept;
  PersistentCollective& operator=(PersistentCollective&& other) noexcept;
  PersistentCollective(const PersistentCollective&) = delete;
  PersistentCollective& operator=(const PersistentCollective&) = delete;
  ~PersistentCollective();

  /// False when admission rejected the install (and no fallback applies):
  /// run()/start() must not be called.
  bool ok() const { return op_ != nullptr; }
  /// Admission outcome of the one-time install (attempts, cache_hit,
  /// any_feasible).  Its tree is always empty: the op holds the installed
  /// one, and tree() reflects the live (possibly reinstalled) embedding.
  const InstallReport& install_report() const { return report_; }
  /// True when this request currently holds an installed reduction tree
  /// (false for host-ring persistents — including the kAuto admission
  /// fallback — and for requests that lost their tree to a fabric fault
  /// and are finishing on the host ring).
  bool in_network() const;
  /// Asserts in_network(): host-ring persistents have no tree.  Returns
  /// the LIVE tree, which moves on a fault-triggered reinstall or a
  /// congestion migration.
  const ReductionTree& tree() const;
  u32 iterations() const { return iterations_; }
  /// Congestion-triggered re-embeddings over the session's lifetime (each
  /// iteration's CollectiveResult carries its own share).
  u32 migrations() const;
  /// Optimizer-planned re-embeddings applied over the session's lifetime
  /// (disjoint from the reactive migrations() count).
  u32 planned_migrations() const;
  /// Traffic-attribution tag (core::AllreduceConfig::trace) of this
  /// session — stable across reinstalls and migrations; 0 when empty.
  /// The co-placement snapshot keys per-job link EWMAs off it.
  u32 trace() const { return trace_; }

  /// Stages a PlacementPlan move: the session re-embeds onto `target` at
  /// its next iteration boundary via the break-before-make fresh-id path.
  /// False (nothing staged) for host-ring persistents and sessions
  /// currently without an install.
  bool plan_migration(const ReductionTree& target);

#if FLARE_VALIDATE_ENABLED
  /// Test backdoor: breaks the next planned-move application so the
  /// FLARE_VALIDATE "plan-apply" audit must fire (validate_test).  False
  /// when the session has no tree op.
  bool debug_break_next_plan_apply();
#endif

  /// Blocking iteration: resets per-iteration engine/host state, executes
  /// against the installed tree, drives the calendar to idle.  When the
  /// fabric faulted since the last iteration (switch crash, dead link) and
  /// Tuning::retransmit_timeout_ps is enabled, the tree is transparently
  /// recomputed and reinstalled first.
  CollectiveResult run();
  /// Nonblocking iteration on the shared calendar.  Iterations of ONE
  /// persistent request must not overlap each other (the installed engine
  /// state is per-request); distinct requests may.
  CollectiveHandle start(CompletionFn on_complete = {});

  /// Uninstalls the tree and detaches; idempotent.
  void release();

 private:
  friend class Communicator;
  Communicator* comm_ = nullptr;
  CollectiveOptions desc_;
  u32 trace_ = 0;
  InstallReport report_;
  std::unique_ptr<detail::OpBase> op_;  ///< reused across iterations
  u32 iterations_ = 0;
};

class Communicator {
 public:
  Communicator(net::Network& net, std::vector<net::Host*> participants,
               CommunicatorConfig cfg = {});
  ~Communicator();
  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  /// Blocking one-shot collective: start(), then net.sim().run() to
  /// completion, so it requires an otherwise-idle calendar position.
  CollectiveResult run(const CollectiveOptions& desc);

  /// Nonblocking one-shot: persistent(desc) run for one iteration, its
  /// install released as that iteration publishes, before `on_complete`
  /// fires on the calendar.  Every algorithm — dense, sparse, host-based —
  /// composes on the one shared calendar.  When admission rejects an
  /// explicit in-network request the handle completes at once with
  /// ok == false.
  CollectiveHandle start(const CollectiveOptions& desc,
                         CompletionFn on_complete = {});

  /// Install-once / run-many (see PersistentCollective) — the one way a
  /// request is built: resolve the algorithm, check the descriptor,
  /// install, fall back on admission rejection and construct the op.
  /// Supported for every engine: the in-network dense kinds, the
  /// in-network sparse allreduce (per-iteration switch hash-store reset,
  /// fresh gradients via SparseWorkload::epoch_pairs), the host ring and
  /// SparCML.  kAuto allreduce falls back to a host data plane (ring, or
  /// SparCML for sparse workloads) when admission rejects the install;
  /// a rejected explicit in-network request is !ok().
  PersistentCollective persistent(const CollectiveOptions& desc);

  net::Network& network() { return net_; }
  NetworkManager& manager() { return *manager_; }
  const std::vector<net::Host*>& participants() const {
    return participants_;
  }

 private:
  friend class PersistentCollective;

  Algorithm resolve_algorithm(const CollectiveOptions& desc) const;
  core::AllreduceConfig make_config(const CollectiveOptions& desc,
                                    Algorithm alg) const;
  InstallReport install(const CollectiveOptions& desc,
                        const core::AllreduceConfig& cfg, bool sparse);
  void reap();

  net::Network& net_;
  std::vector<net::Host*> participants_;
  CommunicatorConfig cfg_;
  std::unique_ptr<NetworkManager> owned_manager_;
  NetworkManager* manager_ = nullptr;
  /// One-shot requests in flight (completed ones are reaped lazily).
  std::vector<PersistentCollective> ops_;
};

}  // namespace flare::coll

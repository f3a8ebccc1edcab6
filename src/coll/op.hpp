// The collective-op lifecycle shared by every engine the Communicator
// drives (coll/communicator.hpp is the public entry point).
//
// detail::OpBase is one collective request on the event calendar, and it
// owns the iteration lifecycle once for every engine: begin_iteration()
// adopts the caller's completion state and takes the start time and
// traffic baseline; each host's finish time is recorded as it gets its
// result, and after the last one finalize() runs off the current call
// stack.  It fills the common half of the result (completion and mean
// host time, traffic, retransmits) and publish()es it.  OpBase also owns
// the alive_-guarded watchdog, the give-up publication of a permanent
// stall (ok == false) and the iteration span on the op's tracer row.  Two
// chassis sit on top of it, one per kind of data plane, and each adds
// only what differs:
//
// detail::TreeOpBase is the chassis of the TREE-BACKED in-network ops
// (dense InNetOp in coll/communicator.cpp, sparse SparseOp in
// coll/flare_sparse.hpp).  It owns the host side of the block protocol:
// each host walks its staggered or aligned block schedule under the send
// window (paper Section 5), and a block completes when the host holds its
// multicast result.  On top of it sit the reliability layer and the
// install's upkeep, shared verbatim by dense and sparse:
//
//   * timeouts — the watchdog re-sends blocks whose result is overdue,
//     with per-block exponential backoff;
//   * fault recovery — fresh-id uninstall/reinstall on the surviving
//     fabric with the iteration restarted on the fresh engines, bounded
//     heal-waits, a stall budget for restarts that complete nothing, and
//     a pluggable host-side fallback data plane (the ring for dense
//     allreduce, SparCML for sparse);
//   * persistent upkeep — per-iteration engine reset, transparent
//     reinstall after a crash, fallback probing once the fabric heals;
//   * congestion migration — break-before-make re-embedding of the
//     Canary-style dynamic trees, triggered on the worst tree edge's
//     FOREIGN EWMA utilization (per-collective link attribution subtracts
//     the session's own traffic; no completion-time gate needed).
//
// A concrete tree op is a block schedule on six hooks: stage() stages an
// iteration's inputs, send_block() builds one host's packets for one
// block, on_block_packet() consumes the down multicast and says when a
// host holds a block, on_restart() clears partial state before a restart,
// and fill_result() judges the result; make_fallback_op() names the host
// plane.
//
// detail::HostOpBase is the chassis of the HOST-BASED ops (the ring,
// coll/ring.hpp, and SparCML, coll/sparcml.hpp) — the Figure 15 baselines
// and the fallback planes above.  It owns the host transport: message
// framing into MTU fragments, per-fragment reassembly and the
// receiver-driven NACK/replay on the watchdog.  A concrete host op is a
// schedule: which peer and tag each host waits on next, what a fully
// arrived message does, and how the result is judged.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "coll/manager.hpp"
#include "coll/options.hpp"
#include "coll/result.hpp"
#include "common/validate.hpp"
#include "net/packet.hpp"

namespace flare::coll {

using CompletionFn = std::function<void(const CollectiveResult&)>;

namespace detail {

/// Shared completion record behind a CollectiveHandle.
struct OpState {
  bool done = false;
  CollectiveResult result;
  CompletionFn on_complete;
};

class OpBase {
 public:
  virtual ~OpBase() = default;
  OpBase(const OpBase&) = delete;
  OpBase& operator=(const OpBase&) = delete;

  /// Kicks off the request's `iteration`-th iteration (0 first): (re)wires
  /// host handlers, stages data and enqueues the first sends on the
  /// calendar.  `state` receives the result; its on_complete (if any)
  /// fires at completion.
  virtual void begin(u32 iteration, std::shared_ptr<OpState> state) = 0;

  /// The LIVE reduction tree of an in-network op holding an install;
  /// nullptr for host-based ops and after a fault stripped the tree.
  virtual const ReductionTree* current_tree() const { return nullptr; }

  /// Congestion migrations performed over the op's lifetime (0 for
  /// host-based ops).
  virtual u32 migrations() const { return 0; }

  /// Stages an optimizer-planned re-embedding (a PlacementPlan move) to
  /// apply at the next iteration boundary through the break-before-make
  /// fresh-id path.  Returns false — and stages nothing — for host-based
  /// ops and for tree ops currently without an install (fallback/outage):
  /// the service re-plans such jobs on a later round instead.
  virtual bool plan_migration(const ReductionTree& target) {
    (void)target;
    return false;
  }

  /// Optimizer-planned migrations applied over the op's lifetime —
  /// disjoint from migrations(), which counts only the op's own reactive
  /// moves (the bench asserts the co-placement win comes from planning,
  /// not more reactive churn).
  virtual u32 planned_migrations() const { return 0; }

#if FLARE_VALIDATE_ENABLED
  /// Seeded-violation backdoor for the "plan-apply" audit; false when the
  /// op has no planned-move machinery (host-based ops).
  virtual bool debug_break_next_plan_apply() { return false; }
#endif

  /// Releases installed switch state and host handlers; idempotent, no-op
  /// for host-based ops.  Called by PersistentCollective::release(), and
  /// for a one-shot as its single iteration publishes.
  virtual void release_install() {}

  /// True once the last iteration published and no install is held.
  bool reapable() const { return complete_ && current_tree() == nullptr; }

 protected:
  /// `trace`: the op's attribution tag and tracer row; `span` names the
  /// per-iteration tracer span.
  OpBase(net::Network& net, const std::vector<net::Host*>& participants,
         const CollectiveOptions& desc, u32 trace, const char* span);

  /// The concrete op's half of a finished iteration's result (error, the
  /// `ok` rule, extras) on top of the common and chassis halves.
  virtual void fill_result(CollectiveResult& res) const = 0;

  /// The chassis' half of a result about to be published — after a
  /// finished iteration, or on give-up — and the release of what only the
  /// iteration held.
  virtual void settle(CollectiveResult& res, bool gave_up) = 0;

  /// begin()'s head: asserts no iteration is running, adopts `state`,
  /// resets the clock, traffic baseline, host finish times and retransmit
  /// count, and opens the iteration span.
  void begin_iteration(std::shared_ptr<OpState> state);

  /// Host h holds its result.  Once every host does, finalize() runs off
  /// the caller's stack: by then every switch- and host-side event of the
  /// iteration has run (host delivery is causally last on each path), so
  /// releasing or resetting state afterwards is race-free.
  void host_done(u32 h);

  void arm_watchdog();

  /// Permanent stall or outage: publishes ok == false so callers observe
  /// the failure instead of spinning the calendar forever.
  void give_up();

  /// Closes the iteration span.
  void trace_iteration_end();

  /// Publishes the result and invokes the completion callback.  MUST be
  /// the last thing a publication path does: the callback may destroy the
  /// op (service jobs self-erase), so no member access is allowed after it.
  void publish(CollectiveResult&& res);

  /// An iteration is executing (guards watchdog and fault-notice events).
  bool iteration_active() const { return !finished_ && state_ != nullptr; }

  net::Network& net_;
  const std::vector<net::Host*>& participants_;
  CollectiveOptions desc_;
  const u32 trace_;  ///< attribution tag + tracer row (see ctor)
  const SimTime timeout_ps_;
  std::shared_ptr<OpState> state_;
  SimTime start_ps_ = 0;            ///< iteration start
  std::vector<SimTime> finish_ps_;  ///< per host, once it holds its result
  u64 retransmits_ = 0;
  bool finished_ = false;
  /// Outlives-`this` guard for watchdog/listener events on the calendar.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);

 private:
  /// One watchdog tick while the watchdog is armed.
  virtual void on_watchdog() = 0;
  void finalize();

  const char* span_;
  bool span_open_ = false;  ///< balances B/E on the tracer row
  bool complete_ = false;
  bool watchdog_armed_ = false;
  u64 base_traffic_ = 0;  ///< fabric traffic at iteration start
  u32 hosts_done_ = 0;
};

/// Chassis of the tree-backed in-network ops (see the file comment).  The
/// concrete op is a block schedule on six hooks — stage, send_block,
/// on_block_packet, on_restart, fill_result and make_fallback_op.  Per-host
/// windowed sending, block completion, the timeout scan, restart on a
/// fresh install, the tree's half of the result and the install's upkeep
/// — recovery, persistence, migration — run here, identically for the
/// dense and sparse engines.
class TreeOpBase : public OpBase {
 public:
  /// `blocks`: reduction blocks per iteration (the send schedule's length).
  TreeOpBase(net::Network& net, NetworkManager& manager,
             const std::vector<net::Host*>& participants,
             const CollectiveOptions& desc, core::AllreduceConfig cfg,
             ReductionTree tree, bool sparse, u32 blocks,
             net::CongestionMonitor* monitor);
  ~TreeOpBase() override;

  /// Persistent upkeep, then stage() and every host's first window of
  /// blocks — or the whole iteration on the fallback plane once the
  /// fabric was lost for good.
  void begin(u32 iteration, std::shared_ptr<OpState> state) final;

  const ReductionTree* current_tree() const override {
    return installed_ ? &tree_ : nullptr;
  }
  u32 migrations() const override { return migrations_total_; }
  bool plan_migration(const ReductionTree& target) override;
  u32 planned_migrations() const override { return planned_total_; }
  void release_install() override;

#if FLARE_VALIDATE_ENABLED
  /// After the next planned migration installs, silently strips the first
  /// tree switch's role so the audit MUST fire (validate_test proves it).
  bool debug_break_next_plan_apply() override {
    debug_break_plan_apply_ = true;
    return true;
  }
#endif

 protected:
  // ---- hooks the concrete op supplies -----------------------------------

  /// Stages iteration `iteration`: inputs, reference, per-host result
  /// state.  Runs after the persistent upkeep, on tree_.
  virtual void stage(u32 iteration) = 0;

  /// Sends host h's contribution to block b through send_up() — one packet
  /// or a shard sequence — with `flags` OR-ed into each header
  /// (core::kFlagRetransmit on a timeout re-send).
  virtual void send_block(u32 h, u32 b, u16 flags) = 0;

  /// Consumes a down-multicast packet of a block host h does not hold yet;
  /// true once h holds the block.
  virtual bool on_block_packet(u32 h, const core::Packet& pkt) = 0;

  /// Clears the kind's partial state of every block still pending before
  /// the iteration replays on a fresh install (fresh engines, counters).
  virtual void on_restart() {}

  /// Host-side fallback data plane once no viable tree remains (the ring
  /// for dense allreduce, SparCML for sparse allreduce); nullptr when the
  /// kind has none (reduce/broadcast/barrier wait for the fabric to heal).
  virtual std::unique_ptr<OpBase> make_fallback_op() = 0;

  // ---- block machinery the hooks use ------------------------------------

  /// One block as one host sees it.
  struct Block {
    bool done = false;     ///< the host holds the block's result
    bool pending = false;  ///< sent in this epoch, result awaited
    u32 retries = 0;       ///< timeout re-sends in this epoch
    SimTime sent_ps = 0;   ///< last (re)transmission
  };
  /// One host's walk through the iteration's blocks.
  struct HostRun {
    net::Host* host = nullptr;
    std::vector<u32> schedule;  ///< block send order (core::send_schedule)
    std::size_t next = 0;       ///< next schedule slot to send
    u32 outstanding = 0;        ///< results awaited (the window's fill)
    u64 blocks_done = 0;
    std::vector<Block> blocks;
  };

  /// Sends `pkt` up the current install as host h's reduction packet.
  void send_up(u32 h, core::Packet&& pkt);
  /// Host h's child slot at its tree leaf.
  u16 child_index(u32 h) const {
    return tree_.host_child_index[participants_[h]->host_index()];
  }

  NetworkManager& manager_;
  core::AllreduceConfig cfg_;
  ReductionTree tree_;
  const u32 nb_;  ///< reduction blocks per iteration
  std::vector<HostRun> runs_;

 private:
  /// Block count, install release on give-up, working-memory peak and the
  /// recovery and migration counters.
  void settle(CollectiveResult& res, bool gave_up) override;

  /// Points host h's reduce handler at the current install.
  void wire(u32 h);
  /// Sends host h's next blocks while its window has room.
  void try_send(u32 h);
  void on_down(u32 h, const core::Packet& pkt);

  /// Replays the CURRENT iteration against a freshly installed tree
  /// (engines are new: every host re-contributes every block; results
  /// already delivered are kept).
  void restart_iteration();
  /// Blocks completed this iteration, summed over hosts.
  u64 blocks_done() const;

  /// One watchdog pass over every (host, block) whose result is pending:
  /// re-sends timed-out blocks under the exponential backoff and returns
  /// true when some block exhausted max_retransmits — the signal to
  /// escalate into recover().
  bool scan_timeouts();

  bool fallback_active() const { return fallback_op_ != nullptr; }

  /// Fresh-id reinstall on the surviving fabric; false when admission
  /// rejects every candidate root.  Bumps recoveries_ on success.
  bool try_reinstall();

  /// Tree declared dead (`force` skips the liveness probe — progress
  /// stopped although the tree LOOKS healthy, e.g. a restarted switch).
  /// Reinstall, or hand the iteration to the fallback data plane, or
  /// schedule a bounded heal-wait; gives up past the wait budget.
  void recover(bool force);

  void subscribe_faults();
  void on_fault(const net::FaultNotice& notice);
  void on_watchdog() override;

  /// Persistent re-run upkeep: reset healthy engines, transparently
  /// reinstall a damaged tree, or probe a healed fabric to leave the
  /// fallback data plane.
  void refresh_persistent_install();

  /// Iteration-boundary migration check (Canary's dynamic trees): when the
  /// installed tree's links run hot AND a sufficiently cheaper embedding
  /// exists, move there via the fresh-id reinstall path.
  void maybe_migrate();

  /// Consumes the tree staged by plan_migration() at the iteration
  /// boundary.  True when a plan was pending and ATTEMPTED (the reactive
  /// check is skipped that boundary — two controllers re-embedding one
  /// session in the same instant would fight); false when nothing was
  /// staged or the plan went stale (fabric changed since the optimizer
  /// froze it).
  bool apply_planned_migration();

  /// Break-before-make re-embedding onto `target` via the fresh-id
  /// reinstall path — the shared tail of maybe_migrate() and
  /// apply_planned_migration().  Counts a migration (reactive or planned
  /// per `planned`) only when the switch set actually changed.
  void migrate_to(const ReductionTree& target, bool planned);

  /// FLARE_VALIDATE "plan-apply" audit: a planned move must leave the op
  /// either fully installed (every tree switch holds the fresh id's role)
  /// or fully rolled off the fabric onto a recovery path.  No-op for
  /// reactive moves and in non-validating builds.
  void validate_plan_apply(bool planned);

  /// Constructs the fallback op (when the kind has one) and releases the
  /// install; false when no fallback applies.
  bool prepare_fallback();
  void start_fallback_iteration();
  void on_fallback_done();

  /// The op holds its install until release_install() (a one-shot's
  /// publication, PersistentCollective::release()); false after release
  /// or while a fault left the op treeless.
  bool installed_ = true;
  /// Sparse engines run at the sparse calibrated service rate and install
  /// hash/array stores — the only dense/sparse asymmetry the base carries.
  const bool sparse_;
  /// Staggered sending keeps every block in flight (Section 5); windowed
  /// flow control applies to aligned sending.
  const u32 window_;
  u32 iteration_ = 0;

  // --- fault tolerance ---
  /// Heal-wait budget for kinds with no host fallback: ~64 timeout periods
  /// of continuous no-viable-tree before the op publishes a failed result.
  static constexpr u32 kMaxRecoverWaits = 64;
  u32 max_retry_ = 4;
  u32 recover_waits_ = 0;
  /// Stall budget: forced restarts in a row that complete no block, each
  /// doubling the restarted blocks' timeout, before the tree counts as
  /// dead (fallback plane, else a failed result).  An iteration up to
  /// ~2^kMaxStalls timeouts long still completes in-network.
  static constexpr u32 kMaxStalls = 10;
  static constexpr u64 kNoRestart = ~u64{0};
  u32 stalls_ = 0;
  /// blocks_done() when the iteration last restarted on a fresh install.
  u64 done_at_restart_ = kNoRestart;
  u32 recoveries_ = 0;

  // --- congestion adaptation ---
  net::CongestionMonitor* monitor_ = nullptr;
  u32 migrations_iter_ = 0;   ///< while preparing the CURRENT iteration
  u32 migrations_total_ = 0;  ///< over the op's lifetime
  u32 planned_iter_ = 0;      ///< optimizer-planned, CURRENT iteration
  u32 planned_total_ = 0;     ///< optimizer-planned, op lifetime

  /// Host-side fallback data plane once no viable tree remains.
  std::unique_ptr<OpBase> fallback_op_;

  /// Re-embedding staged by plan_migration(), consumed at the next
  /// iteration boundary by apply_planned_migration().
  std::optional<ReductionTree> planned_tree_;
#if FLARE_VALIDATE_ENABLED
  bool debug_break_plan_apply_ = false;
#endif

  bool first_begin_ = true;
  u64 fault_listener_ = 0;
  bool listening_ = false;
  std::shared_ptr<OpState> fallback_state_;
};

/// Chassis of the host-based ops (see the file comment).  The concrete op
/// stages its inputs, sends each host's first message, and supplies three
/// hooks; framing, reassembly and NACK replay run here, identically for
/// the ring and SparCML.
///
/// Loss detection is receiver-driven: every host waits on exactly one
/// (peer, tag) message at a time, and a host stalled on it past the
/// timeout NACKs that peer, which replays the recorded payload.
/// Reassembly is idempotent (per-fragment bitmap), so duplicated replays
/// and NACK storms are harmless and a lost NACK is re-issued on the next
/// watchdog tick.
class HostOpBase : public OpBase {
 public:
  ~HostOpBase() override;

 protected:
  /// One message's payload, dense or sparse (as net::HostMsg carries it).
  struct Payload {
    std::shared_ptr<const core::TypedBuffer> dense;
    std::shared_ptr<const std::vector<core::StoredPair>> sparse;
  };
  /// The message a host waits on next: its sender and tag.
  struct Expect {
    u32 peer = 0;
    u32 tag = 0;
  };

  /// `proto_base` + a fresh collective id is the op's wire protocol (it
  /// feeds the flow id, hence the ECMP path).  `trace`: attribution/tracer
  /// row id — nonzero when the op is the fallback plane of an in-network
  /// session (it inherits the session's stable trace), 0 allocates a
  /// fresh one.  `span` names the per-iteration tracer span.
  HostOpBase(net::Network& net, const std::vector<net::Host*>& participants,
             const CollectiveOptions& desc, u32 proto_base, u32 trace,
             const char* span);

  // ---- hooks the concrete op supplies -----------------------------------

  /// The message host `h` waits on next; nullopt once h holds its result.
  virtual std::optional<Expect> expecting(u32 h) const = 0;

  /// Applies h's fully reassembled expected message to its working state
  /// and sends h's next message, if any.  Runs once per message.
  virtual void consume(u32 h, const Payload& msg) = 0;

  // ---- shared machinery --------------------------------------------------

  /// After staging: resets the per-host transport and wires the host
  /// handlers.  Returns false for a single host — already complete, its
  /// finalize scheduled — and otherwise arms the watchdog; the caller then
  /// sends every host's first message.
  bool launch();

  /// Sends `bytes` of `data` from host `h` to host `dst` under `tag`, in
  /// MTU fragments; recorded for NACK replay when fault handling is on.
  void send(u32 h, u32 dst, u32 tag, u64 bytes, Payload data);

  const u32 proto_;
  const u32 P_;

 private:
  /// Reassembly state of one logical message: a per-fragment bitmap so
  /// that replayed fragments never double-count.
  struct Partial {
    std::vector<bool> have;
    u32 have_count = 0;
    Payload data;
  };
  /// What a host sent under one tag, kept until the op finishes so a NACK
  /// can replay it (the sender's working state has moved on by then).
  struct Sent {
    u32 dst = 0;
    u32 frags = 0;
    u64 bytes = 0;
    Payload data;
  };
  struct HostLink {
    SimTime last_progress_ps = 0;
    u32 nacks = 0;  ///< NACKs since last progress (backoff input)
    std::unordered_map<u32, Partial> inbox;  ///< by tag
    std::unordered_map<u32, Sent> sent;      ///< by tag (NACK replay)
  };

  /// Releases the host handlers.
  void settle(CollectiveResult& res, bool gave_up) override;

  /// Sends every fragment of `msg` (first sends and NACK-triggered replays
  /// take the same path).
  void transmit(u32 h, u32 tag, const Sent& msg);
  void on_msg(const net::HostMsg& msg);
  void handle_nack(u32 h, u32 tag);
  void send_nack(u32 h, const Expect& want);
  /// NACKs every stalled host's peer; gives up past the NACK budget.
  void on_watchdog() override;
  /// Consumes every expected message of h that has fully arrived.
  void advance(u32 h);
  void release_handlers();

  /// NACK budget per stalled host before the op reports failure: with the
  /// capped exponential backoff this tolerates outages two orders longer
  /// than the timeout while still bounding a permanent stall.
  static constexpr u32 kMaxNacks = 64;
  bool handlers_set_ = false;
  std::vector<HostLink> links_;
};

}  // namespace detail

}  // namespace flare::coll

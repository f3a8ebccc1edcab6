#include "coll/communicator.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "coll/flare_sparse.hpp"
#include "coll/ring.hpp"
#include "coll/sparcml.hpp"
#include "coll/tree_cache.hpp"
#include "core/policy.hpp"
#include "net/telemetry.hpp"
#include "obs/trace.hpp"
#include "workload/generators.hpp"

namespace flare::coll {

std::string_view collective_kind_name(CollectiveKind k) {
  switch (k) {
    case CollectiveKind::kAllreduce: return "allreduce";
    case CollectiveKind::kReduce: return "reduce";
    case CollectiveKind::kBroadcast: return "broadcast";
    case CollectiveKind::kBarrier: return "barrier";
  }
  return "?";
}

std::string_view algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kAuto: return "auto";
    case Algorithm::kFlareDense: return "flare-dense";
    case Algorithm::kFlareSparse: return "flare-sparse";
    case Algorithm::kHostRing: return "host-ring";
    case Algorithm::kSparcml: return "sparcml";
  }
  return "?";
}

namespace detail {

// ========================================================== in-network ====
// One event-driven driver for ALL in-network dense kinds (Section 8: the
// extension collectives fall out of the allreduce machinery):
//
//   * allreduce — every host contributes its vector and consumes the
//     aggregated multicast;
//   * reduce    — same protocol; only the destination's buffer is the
//     result (the multicast down is shared, as in the paper);
//   * broadcast — the root contributes its data, everyone else the
//     operator identity; the "sum" coming back is the root's vector;
//   * barrier   — one 0-byte block; a host leaves the barrier when the
//     root's empty result multicast reaches it.
//
// Fault tolerance (Tuning::retransmit_timeout_ps > 0), layered like
// NetReduce + Canary (PAPERS.md):
//   1. a per-op watchdog retransmits blocks outstanding past the timeout
//      (switches re-emit cached results for blocks they already finished,
//      so any single loss — contribution, aggregate, or multicast — heals);
//   2. after max_retransmits of one block, or on a fabric fault notice
//      that kills a tree element, the op declares the tree dead: it
//      uninstalls the remains, recomputes + reinstalls on the surviving
//      fabric under a FRESH collective id (stale packets drop harmlessly)
//      and restarts the iteration;
//   3. when no viable tree exists, an allreduce finishes on the host-ring
//      data plane (reduce/broadcast/barrier retry once the fabric heals).
// Persistent requests reinstall transparently between iterations.
//
// All of 1-3, the block windowing, completion and restart they act on, the
// persistent upkeep and the congestion migration live in
// detail::TreeOpBase (coll/op.{hpp,cpp}) and are shared verbatim with the
// sparse engine's SparseOp; this class is the DENSE block schedule only:
// what each host contributes per block, where a result block lands, and
// how the result is judged.

class InNetOp final : public TreeOpBase {
 public:
  InNetOp(net::Network& net, NetworkManager& manager,
          const std::vector<net::Host*>& participants,
          const CollectiveOptions& desc, core::AllreduceConfig cfg,
          ReductionTree tree, net::CongestionMonitor* monitor = nullptr)
      : TreeOpBase(net, manager, participants, desc, cfg, std::move(tree),
                   /*sparse=*/false, blocks_of(desc, cfg), monitor),
        op_(cfg.op),
        elems_total_(elems_of(desc)),
        elems_per_pkt_(barrier(desc) ? 0 : cfg.elems_per_packet) {}

 private:
  static bool barrier(const CollectiveOptions& desc) {
    return desc.kind == CollectiveKind::kBarrier;
  }
  static u64 elems_of(const CollectiveOptions& desc) {
    if (barrier(desc)) return 0;
    return std::max<u64>(1, desc.data_bytes / core::dtype_size(desc.dtype));
  }
  /// A barrier is one 0-byte block.
  static u32 blocks_of(const CollectiveOptions& desc,
                       const core::AllreduceConfig& cfg) {
    if (barrier(desc)) return 1;
    FLARE_ASSERT(cfg.elems_per_packet >= 1);
    return static_cast<u32>((elems_of(desc) + cfg.elems_per_packet - 1) /
                            cfg.elems_per_packet);
  }

  u32 block_elems(u32 b) const {
    if (elems_per_pkt_ == 0) return 0;  // barrier
    const u64 first = static_cast<u64>(b) * elems_per_pkt_;
    return static_cast<u32>(
        std::min<u64>(elems_per_pkt_, elems_total_ - first));
  }

  /// Block `b` of this iteration's rotation of `base`.
  const std::byte* slice(const core::TypedBuffer& base, u32 b) {
    return workload::rotated_slice(base, shift_,
                                   static_cast<u64>(b) * elems_per_pkt_,
                                   block_elems(b), bounce_);
  }

  /// What host `h` feeds into the reduction for block `b`.
  const void* contribution(u32 h, u32 b) {
    switch (desc_.kind) {
      case CollectiveKind::kAllreduce:
      case CollectiveKind::kReduce:
        return slice(inputs_->input(h), b);
      case CollectiveKind::kBroadcast:
        return h == desc_.root ? slice(inputs_->input(0), b)
                               : identity_.data();
      case CollectiveKind::kBarrier:
        return nullptr;
    }
    return nullptr;
  }

  /// Whether host h's delivered blocks are checked against the reference:
  /// not for a reduce's other hosts, nor for a barrier.
  bool counts(u32 h) const {
    switch (desc_.kind) {
      case CollectiveKind::kAllreduce:
      case CollectiveKind::kBroadcast:
        return true;
      case CollectiveKind::kReduce:
        // Only the destination consumes the result.
        return h == desc_.root;
      case CollectiveKind::kBarrier:
        return false;
    }
    return false;
  }

  // ------------------------------------------------ TreeOpBase hooks ----

  /// Draws the inputs and their reference once per request (a broadcast's
  /// one input is the root's vector, its own reference); every iteration
  /// then sends and checks them rotated by the iteration's shift.
  void stage(u32 iteration) override {
    err_ = 0.0;
    if (barrier(desc_)) return;
    if (inputs_ == nullptr) {
      const bool bcast = desc_.kind == CollectiveKind::kBroadcast;
      inputs_ = std::make_shared<const workload::DenseInputs>(
          bcast ? 1 : static_cast<u32>(participants_.size()), elems_total_,
          elems_per_pkt_, desc_.dtype, desc_.seed, op_);
      if (bcast) {
        identity_.reshape(desc_.dtype, elems_per_pkt_);
        identity_.fill_identity(op_);
      }
    }
    shift_ = inputs_->rotation(iteration);
  }

  void send_block(u32 h, u32 b, u16 flags) override {
    core::Packet p =
        core::make_dense_packet(cfg_.id, b, child_index(h),
                                contribution(h, b), block_elems(b),
                                desc_.dtype);
    p.hdr.flags |= flags;
    send_up(h, std::move(p));
  }

  /// Checks the block against its slice of the reference as it arrives:
  /// the chassis delivers each (host, block) here once, so the worst
  /// error over every counted host's blocks is the whole-result error.
  bool on_block_packet(u32 h, const core::Packet& pkt) override {
    const u32 b = pkt.hdr.block_id;
    FLARE_ASSERT(pkt.hdr.elem_count == block_elems(b));
    if (counts(h)) {
      FLARE_ASSERT(pkt.payload.size() ==
                   u64{block_elems(b)} * core::dtype_size(desc_.dtype));
      err_ = std::max(err_, core::max_abs_diff(
                                desc_.dtype, pkt.payload.data(),
                                slice(inputs_->reference(), b),
                                block_elems(b)));
    }
    return true;
  }

  void fill_result(CollectiveResult& res) const override {
    const u32 P = static_cast<u32>(participants_.size());
    res.max_abs_err = err_;
    switch (desc_.kind) {
      case CollectiveKind::kAllreduce:
        res.ok = err_ <= core::reduce_tolerance(desc_.dtype, P);
        break;
      case CollectiveKind::kReduce:
        // Only the destination consumes the result; its delivery time is
        // the reduce latency even though the shared multicast reaches
        // everyone.
        res.completion_seconds =
            static_cast<f64>(finish_ps_[desc_.root] - start_ps_) /
            kPsPerSecond;
        res.ok = err_ <= core::reduce_tolerance(desc_.dtype, P);
        break;
      case CollectiveKind::kBroadcast:
        res.ok = err_ <= (core::dtype_is_float(desc_.dtype) ? 1e-4 : 0.0);
        break;
      case CollectiveKind::kBarrier:
        res.ok = true;  // finalize fires only once every host is released
        break;
    }
  }

  /// Fallback data plane: the host ring (dense allreduce only; the other
  /// kinds wait for the fabric to heal).
  std::unique_ptr<OpBase> make_fallback_op() override {
    if (desc_.kind != CollectiveKind::kAllreduce) return nullptr;
    CollectiveOptions rdesc = desc_;
    rdesc.algorithm = Algorithm::kHostRing;
    // The ring inherits the session's trace id: the attribution plane sees
    // one continuous tenant across the in-network -> host transition.  It
    // reduces the same drawn inputs, rotated the same way.
    return std::make_unique<RingOp>(net_, participants_, rdesc, trace_,
                                    inputs_);
  }

  core::ReduceOp op_;
  const u64 elems_total_;
  const u32 elems_per_pkt_;
  /// Drawn by the first stage(); shared with the fallback ring.
  std::shared_ptr<const workload::DenseInputs> inputs_;
  std::size_t shift_ = 0;       ///< this iteration's rotation of inputs_
  core::TypedBuffer bounce_;    ///< a block that wraps past the end
  core::TypedBuffer identity_;  ///< broadcast non-root contribution
  f64 err_ = 0.0;  ///< worst delivered-block error this iteration
};

}  // namespace detail

// ===================================================== CollectiveHandle ===

const CollectiveResult& CollectiveHandle::result() const {
  FLARE_ASSERT_MSG(done(), "result() before the collective completed");
  return state_->result;
}

// ================================================= PersistentCollective ===

PersistentCollective::PersistentCollective() = default;

PersistentCollective::PersistentCollective(
    PersistentCollective&& other) noexcept {
  *this = std::move(other);
}

PersistentCollective& PersistentCollective::operator=(
    PersistentCollective&& other) noexcept {
  if (this != &other) {
    release();
    comm_ = std::exchange(other.comm_, nullptr);
    desc_ = std::move(other.desc_);
    trace_ = other.trace_;
    report_ = std::move(other.report_);
    op_ = std::move(other.op_);
    iterations_ = other.iterations_;
  }
  return *this;
}

PersistentCollective::~PersistentCollective() { release(); }

bool PersistentCollective::in_network() const {
  return op_ != nullptr && op_->current_tree() != nullptr;
}

const ReductionTree& PersistentCollective::tree() const {
  const ReductionTree* live =
      op_ != nullptr ? op_->current_tree() : nullptr;
  FLARE_ASSERT_MSG(live != nullptr,
                   "tree() on a host-ring persistent (no installed tree)");
  return *live;
}

u32 PersistentCollective::migrations() const {
  return op_ != nullptr ? op_->migrations() : 0;
}

u32 PersistentCollective::planned_migrations() const {
  return op_ != nullptr ? op_->planned_migrations() : 0;
}

bool PersistentCollective::plan_migration(const ReductionTree& target) {
  return op_ != nullptr && op_->plan_migration(target);
}

#if FLARE_VALIDATE_ENABLED
bool PersistentCollective::debug_break_next_plan_apply() {
  return op_ != nullptr && op_->debug_break_next_plan_apply();
}
#endif

void PersistentCollective::release() {
  if (op_ != nullptr) op_->release_install();
  op_.reset();
  comm_ = nullptr;
}

CollectiveHandle PersistentCollective::start(CompletionFn on_complete) {
  FLARE_ASSERT_MSG(ok(), "start() on a rejected persistent collective");
  auto state = std::make_shared<detail::OpState>();
  state->on_complete = std::move(on_complete);
  CollectiveHandle handle(state);
  // Install-once / run-many: the op resets per-iteration engine state on
  // every tree switch (and transparently reinstalls after a fabric fault)
  // inside begin(); the admission slot and tree roles otherwise stay put.
  op_->begin(iterations_, std::move(state));
  iterations_ += 1;
  return handle;
}

CollectiveResult PersistentCollective::run() {
  FLARE_ASSERT_MSG(comm_ != nullptr, "run() on a released collective");
  CollectiveHandle handle = start({});
  comm_->network().sim().run();
  FLARE_ASSERT_MSG(handle.done(),
                   "calendar drained without completing the collective");
  return handle.result();
}

// ======================================================== Communicator ====

Communicator::Communicator(net::Network& net,
                           std::vector<net::Host*> participants,
                           CommunicatorConfig cfg)
    : net_(net), participants_(std::move(participants)),
      cfg_(std::move(cfg)) {
  FLARE_ASSERT_MSG(!participants_.empty(),
                   "a communicator needs at least one participant");
  if (cfg_.manager != nullptr) {
    manager_ = cfg_.manager;
  } else {
    owned_manager_ = std::make_unique<NetworkManager>(net_);
    manager_ = owned_manager_.get();
  }
  if (cfg_.monitor != nullptr && owned_manager_ != nullptr) {
    // Congestion-aware embedding: the monitor's edge costs drive the
    // manager's tree search.  Installed on the PRIVATE manager only — its
    // lifetime ends with this session, so the captured monitor pointer
    // can never dangle into other sessions.  A shared manager keeps
    // whatever provider its owner (e.g. the service layer) set.
    net::CongestionMonitor* monitor = cfg_.monitor;
    manager_->set_link_cost([monitor](net::NodeId node, u32 port) {
      return monitor->edge_cost(node, port);
    });
  }
}

Communicator::~Communicator() = default;

Algorithm Communicator::resolve_algorithm(
    const CollectiveOptions& desc) const {
  if (desc.algorithm != Algorithm::kAuto) return desc.algorithm;
  if (desc.sparse.pairs != nullptr || desc.sparse.epoch_pairs != nullptr) {
    return Algorithm::kFlareSparse;
  }
  return Algorithm::kFlareDense;
}

namespace {

/// SparCML's recursive doubling serves power-of-two groups only; the kAuto
/// admission fallback must not construct it for other sizes.
bool sparcml_feasible(std::size_t participants) {
  return std::has_single_bit(participants);
}

}  // namespace

core::AllreduceConfig Communicator::make_config(
    const CollectiveOptions& desc, Algorithm alg) const {
  core::AllreduceConfig cfg;
  cfg.id = manager_->next_id();
  // The attribution tag outlives the id: every fresh-id reinstall keeps
  // cfg.trace, so link accounting sees one tenant across recoveries.
  cfg.trace = net_.alloc_trace_id();
  cfg.dtype = desc.dtype;
  cfg.fault_recovery = desc.retransmit_timeout_ps > 0;
  const u32 esize = core::dtype_size(desc.dtype);
  if (alg == Algorithm::kFlareSparse) {
    // In-network sparse allreduce (Section 7): hash stores below the root,
    // array at the root (the manager flips hash_storage per switch).
    cfg.op = core::ReduceOp(core::OpKind::kSum);
    cfg.policy = core::AggPolicy::kSingleBuffer;
    cfg.sparse = true;
    cfg.block_span = desc.sparse.block_span;
    cfg.pairs_per_packet =
        core::sparse_pairs_per_packet(desc.packet_payload, desc.dtype);
    cfg.hash_capacity_pairs = desc.hash_capacity_pairs;
    cfg.spill_capacity_pairs = desc.spill_capacity_pairs;
    return cfg;
  }
  switch (desc.kind) {
    case CollectiveKind::kAllreduce:
    case CollectiveKind::kReduce: {
      cfg.op = core::ReduceOp(desc.op);
      FLARE_ASSERT(desc.packet_payload >= esize);
      cfg.elems_per_packet =
          static_cast<u32>(desc.packet_payload / esize);
      cfg.reproducible = desc.reproducible;
      if (desc.auto_policy) {
        const core::PolicyChoice choice =
            core::select_policy(desc.data_bytes, desc.reproducible);
        cfg.policy = choice.policy;
        cfg.num_buffers = choice.num_buffers;
      } else {
        cfg.policy =
            desc.reproducible ? core::AggPolicy::kTree : desc.policy;
        cfg.num_buffers = 1;
      }
      break;
    }
    case CollectiveKind::kBroadcast:
      cfg.op = core::ReduceOp(core::OpKind::kSum);
      FLARE_ASSERT(desc.packet_payload >= esize);
      cfg.elems_per_packet =
          static_cast<u32>(desc.packet_payload / esize);
      cfg.policy = core::AggPolicy::kTree;
      break;
    case CollectiveKind::kBarrier:
      cfg.dtype = core::DType::kInt32;
      cfg.elems_per_packet = 0;  // 0-byte blocks (Section 8)
      cfg.policy = core::AggPolicy::kSingleBuffer;
      break;
  }
  return cfg;
}

InstallReport Communicator::install(const CollectiveOptions& desc,
                                    const core::AllreduceConfig& cfg,
                                    bool sparse) {
  // Placement decisions read the fabric as it is NOW, not as it was at the
  // monitor's last scheduled sample.
  if (cfg_.monitor != nullptr) cfg_.monitor->sample();
  const f64 bps = resolved_switch_service_bps(desc, sparse);
  if (!cfg_.roots.empty()) {
    return manager_->install_with_roots(participants_, cfg, bps, cfg_.roots,
                                        cfg_.cache);
  }
  return manager_->install_with_retry(participants_, cfg, bps);
}

void Communicator::reap() {
  std::erase_if(ops_, [](const PersistentCollective& pc) {
    return pc.op_->reapable();
  });
}

CollectiveHandle Communicator::start(const CollectiveOptions& desc,
                                     CompletionFn on_complete) {
  reap();
  PersistentCollective pc = persistent(desc);
  if (!pc.ok()) {
    // Explicit in-network request rejected by admission: report failure
    // through an immediately-complete handle.
    auto state = std::make_shared<detail::OpState>();
    state->done = true;
    if (on_complete) on_complete(state->result);
    return CollectiveHandle(std::move(state));
  }
  // A one-shot is a one-iteration persistent request: its install is
  // released as that iteration publishes, before the caller's callback.
  detail::OpBase* op = pc.op_.get();
  PersistentCollective& request = ops_.emplace_back(std::move(pc));
  return request.start(
      [op, cb = std::move(on_complete)](const CollectiveResult& res) {
        op->release_install();
        if (cb) cb(res);
      });
}

CollectiveResult Communicator::run(const CollectiveOptions& desc) {
  CollectiveHandle handle = start(desc, {});
  net_.sim().run();
  FLARE_ASSERT_MSG(handle.done(),
                   "calendar drained without completing the collective");
  return handle.result();
}

PersistentCollective Communicator::persistent(const CollectiveOptions& desc) {
  if (desc.kind == CollectiveKind::kReduce ||
      desc.kind == CollectiveKind::kBroadcast) {
    FLARE_ASSERT_MSG(desc.root < participants_.size(),
                     "root must index the participant group");
  }
  PersistentCollective pc;
  pc.comm_ = this;
  pc.desc_ = desc;
  Algorithm alg = resolve_algorithm(desc);
  const bool sparse = alg == Algorithm::kFlareSparse;
  if (alg == Algorithm::kFlareDense || sparse) {
    if (sparse) {
      FLARE_ASSERT_MSG(desc.kind == CollectiveKind::kAllreduce,
                       "sparse engines serve allreduce only");
      FLARE_ASSERT_MSG(desc.sparse.pairs != nullptr ||
                           desc.sparse.epoch_pairs != nullptr,
                       "sparse collective without a sparse workload");
    }
    const core::AllreduceConfig cfg = make_config(desc, alg);
    pc.trace_ = cfg.trace;
    pc.report_ = install(desc, cfg, sparse);
    if (pc.report_) {
      ReductionTree tree = std::move(*pc.report_);
      pc.report_.tree.reset();  // the op holds the live tree
      if (sparse) {
        pc.op_ = std::make_unique<detail::SparseOp>(
            net_, *manager_, participants_, desc, cfg, std::move(tree),
            cfg_.monitor);
      } else {
        pc.op_ = std::make_unique<detail::InNetOp>(
            net_, *manager_, participants_, desc, cfg, std::move(tree),
            cfg_.monitor);
      }
      return pc;
    }
    if (desc.algorithm != Algorithm::kAuto ||
        desc.kind != CollectiveKind::kAllreduce ||
        (sparse && !sparcml_feasible(participants_.size()))) {
      return pc;  // !ok(): no fallback applies
    }
    // The paper's admission policy: fall back to the host data plane (the
    // ring; SparCML for sparse workloads), which needs no switch state.
    alg = sparse ? Algorithm::kSparcml : Algorithm::kHostRing;
  }
  FLARE_ASSERT_MSG(desc.kind == CollectiveKind::kAllreduce,
                   "the host data planes serve allreduce only");
  CollectiveOptions hdesc = desc;
  hdesc.algorithm = alg;
  if (alg == Algorithm::kSparcml) {
    pc.op_ = std::make_unique<detail::SparcmlOp>(net_, participants_, hdesc);
  } else {
    FLARE_ASSERT(alg == Algorithm::kHostRing);
    pc.op_ = std::make_unique<detail::RingOp>(net_, participants_, hdesc);
  }
  return pc;
}

}  // namespace flare::coll

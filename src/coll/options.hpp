// Unified collective descriptor (the Communicator session API).
//
// Flare's headline claim is flexibility: one programmable substrate serving
// dense and sparse allreduce, reduce, broadcast and barrier (Sections 4, 7
// and 8).  The descriptor makes that one API surface: a CollectiveKind
// (what to compute), an Algorithm (which engine computes it), and ONE
// options struct whose shared tuning block replaces the near-duplicate
// fields the per-scheme option structs used to re-declare.
#pragma once

#include <functional>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "core/dtype.hpp"
#include "core/packet.hpp"
#include "core/policy.hpp"
#include "core/reduce_op.hpp"
#include "core/staggered.hpp"

namespace flare::coll {

/// What to compute (Section 8: reduce, broadcast and barrier fall out of
/// the allreduce machinery).
enum class CollectiveKind : u8 {
  kAllreduce = 0,
  kReduce,     ///< only the destination host consumes the result
  kBroadcast,  ///< the root host's vector reaches every participant
  kBarrier,    ///< 0-byte blocks; release when the empty result arrives
};

std::string_view collective_kind_name(CollectiveKind k);

/// Which engine executes it.  kAuto picks in-network Flare (dense or
/// sparse, depending on whether a sparse workload is attached) and falls
/// back to the host-based ring when admission rejects an allreduce — the
/// paper's admission policy.
enum class Algorithm : u8 {
  kAuto = 0,
  kFlareDense,  ///< in-network reduction tree (Sections 4-6)
  kFlareSparse, ///< in-network sparse allreduce (Section 7)
  kHostRing,    ///< host-based ring / Rabenseifner baseline
  kSparcml,     ///< host-based sparse recursive doubling (SparCML)
};

std::string_view algorithm_name(Algorithm a);

/// Tuning fields shared by every scheme — formerly re-declared by
/// FlareDenseOptions, BroadcastOptions, BarrierOptions and the service's
/// JobSpec.  The legacy option structs now inherit this block.
struct Tuning {
  u64 packet_payload = 1024;  ///< in-network block size (bytes)
  /// Aggregation service rate per switch; calibrated against the PsPIN
  /// simulator (Figure 11 operating point for the configured dtype).
  /// 0 -> the calibrated default for the selected algorithm: 2.4e12 for
  /// dense aggregation, 1.6e12 for sparse (Figure 13: sparse is slower).
  f64 switch_service_bps = 0.0;
  core::DType dtype = core::DType::kFloat32;
  /// Workload seed.  A dense request draws its inputs from it once and
  /// iteration i rotates them (workload::DenseInputs); iteration i of a
  /// sparse request draws epoch_pairs(seed + i, ...).
  u64 seed = 1;
  /// Blocks a host may have in flight (aggregation buffers per collective).
  u32 window_blocks = 64;

  // --- fault tolerance (see README "Failure model") ---
  /// Host-side loss detection: a block still outstanding after this long is
  /// retransmitted with kFlagRetransmit; the host ring uses the same period
  /// to NACK missing chunks.  0 disables fault handling entirely — no
  /// watchdog events touch the calendar, preserving legacy behavior
  /// bit for bit.
  SimTime retransmit_timeout_ps = 0;
  /// Consecutive retransmissions of one block before the collective
  /// declares its reduction tree dead and triggers recovery: reinstall on
  /// the surviving fabric, or host-ring fallback when no viable tree
  /// remains.
  u32 max_retransmits = 4;

  // --- congestion adaptation (README "Congestion plane") ---
  /// Persistent sessions re-examine their embedding at every iteration
  /// boundary once the worst tree-edge FOREIGN EWMA utilization — the
  /// monitor's edge_congestion_excluding view, which subtracts the
  /// session's own attributed traffic — exceeds this bound; 0, the
  /// default, disables migration entirely.  Because self-traffic is
  /// excluded at the telemetry layer, no completion-time regression gate
  /// is needed: a session running alone reads ~0 and never flees itself.
  f64 migrate_above = 0.0;
};

/// Migration hysteresis: a session migrates only onto a tree whose
/// WORST-edge congestion is at most this fraction of the current
/// embedding's — strictly below 1 so a session never hops between
/// equivalent trees, and never moves at all when the hot edge (e.g. a
/// participant's access link) is one every candidate must cross.
inline constexpr f64 kMigrateImprovement = 0.85;

/// Calibrated per-switch aggregation rates (Figures 11 and 13).
constexpr f64 kDenseSwitchServiceBps = 2.4e12;
constexpr f64 kSparseSwitchServiceBps = 1.6e12;

/// Resolves the `switch_service_bps == 0` auto sentinel.
inline f64 resolved_switch_service_bps(const Tuning& t, bool sparse) {
  if (t.switch_service_bps > 0.0) return t.switch_service_bps;
  return sparse ? kSparseSwitchServiceBps : kDenseSwitchServiceBps;
}

/// Pluggable sparse data source: pairs of (host, block) with block-relative
/// indices in [0, block_span).  Drives both the in-network sparse allreduce
/// (per block) and SparCML (blocks flattened to global indices).
struct SparseWorkload {
  u32 block_span = 1280;
  u32 num_blocks = 16;
  std::function<std::vector<core::SparsePair>(u32 host, u32 block)> pairs;
  /// Optional per-iteration source for persistent sparse sessions: when
  /// set, iteration i of a persistent request draws its gradients from
  /// epoch_pairs(seed + i, host, block) — fresh data every iteration,
  /// where the dense kinds rotate inputs drawn once.  When null, every
  /// iteration replays `pairs` (a fixed gradient).
  std::function<std::vector<core::SparsePair>(u64 epoch, u32 host,
                                              u32 block)>
      epoch_pairs;
};

/// One descriptor for every collective the substrate serves.
struct CollectiveOptions : Tuning {
  CollectiveKind kind = CollectiveKind::kAllreduce;
  Algorithm algorithm = Algorithm::kAuto;

  u64 data_bytes = 1 * kMiB;  ///< Z per host (dense kinds)
  core::OpKind op = core::OpKind::kSum;
  /// Reduce destination / broadcast source (index into the participants).
  u32 root = 0;

  // --- flare-dense extras ---
  /// Default aligned: in the network simulator the switch is a calibrated
  /// aggregation server (no shared-buffer contention to spread out), and
  /// staggering would delay every block's completion to the end of the
  /// message.  Staggered sending matters inside the PsPIN unit (src/pspin).
  core::SendOrder order = core::SendOrder::kAligned;
  bool reproducible = false;
  /// The dense aggregation policy, used only when `auto_policy` is off
  /// (`reproducible` still forces the tree).
  core::AggPolicy policy = core::AggPolicy::kSingleBuffer;
  /// Select the policy by size (Section 6.4 thresholds) instead.
  bool auto_policy = true;

  // --- host-based extras ---
  u64 mtu_bytes = 4096;  ///< fragmentation unit for ring / SparCML messages

  // --- sparse extras (Section 7); `sparse.pairs != nullptr` selects the
  //     sparse engines under kAuto ---
  SparseWorkload sparse;
  u32 hash_capacity_pairs = 512;
  u32 spill_capacity_pairs = 64;
};

}  // namespace flare::coll

// Common result record for every collective implementation (Figure 15
// reports completion time and total network traffic per scheme).
#pragma once

#include "common/units.hpp"

namespace flare::coll {

struct CollectiveResult {
  bool ok = false;          ///< completed and functionally correct
  bool in_network = false;  ///< served by the switches (vs a host scheme)
  f64 max_abs_err = 0.0;
  f64 completion_seconds = 0.0;   ///< slowest host
  f64 mean_host_seconds = 0.0;
  u64 total_traffic_bytes = 0;    ///< all link bytes, both directions
  u64 blocks = 0;                 ///< reduction blocks / chunks processed
  u64 extra_packets = 0;          ///< scheme-specific (e.g. sparse spills)
  /// Peak working memory across the tree switches (in-network schemes).
  u64 switch_working_mem_hwm = 0;

  // --- sparse extras (flare-sparse / SparCML; zero for dense schemes) ---
  /// Hash-collision spill flushes across the tree switches (flare-sparse);
  /// mirrored into extra_packets.
  u64 spill_packets = 0;
  /// (index, value) pairs the hosts transmitted up, retransmissions
  /// included (flare-sparse).
  u64 host_pairs_sent = 0;
  /// Pairs consumed from the root's down-multicast, recovery replays
  /// included (flare-sparse).
  u64 down_pairs = 0;
  /// Messages sent in dense representation after SparCML's sparse-to-dense
  /// switchover.
  u64 dense_switchovers = 0;
  /// Pairs exchanged while still sparse (SparCML).
  u64 pairs_exchanged = 0;

  // --- fault recovery (populated when Tuning::retransmit_timeout_ps > 0) ---
  u64 retransmits = 0;   ///< blocks/chunks re-sent after a host timeout
  u32 recoveries = 0;    ///< reduction-tree reinstalls after a fabric fault
  /// Congestion-triggered tree re-embeddings performed while PREPARING
  /// this iteration (persistent sessions with Tuning::migrate_above > 0).
  u32 migrations = 0;
  /// Optimizer-planned re-embeddings applied while preparing this
  /// iteration (service co-placement rounds) — disjoint from the reactive
  /// `migrations` count above.
  u32 planned_migrations = 0;
  /// An in-network collective that lost its tree and FINISHED on the
  /// host-ring data plane (in_network is false in that case).
  bool fell_back = false;
};

}  // namespace flare::coll

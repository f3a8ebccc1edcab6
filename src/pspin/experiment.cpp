#include "pspin/experiment.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/typed_buffer.hpp"
#include "model/policies.hpp"
#include "model/sparse.hpp"
#include "workload/generators.hpp"

namespace flare::pspin {

namespace {

struct HostState {
  u32 id = 0;
  std::vector<u32> schedule;  ///< block ids in send order (all rounds)
  std::size_t next = 0;       ///< next schedule slot
  u32 next_shard = 0;         ///< shard within the current sparse block
  std::unique_ptr<workload::ArrivalProcess> arrivals;
};

f64 err_tolerance(core::DType t, u32 hosts) {
  // Summation-order differences only matter for floats; scale with P.
  switch (t) {
    case core::DType::kFloat16: return 0.25 * hosts;
    case core::DType::kFloat32: return 1e-4 * hosts;
    default: return 0.0;
  }
}

}  // namespace

SingleSwitchResult run_single_switch(const SingleSwitchOptions& opt) {
  FLARE_ASSERT(opt.hosts >= 1 && opt.rounds >= 1);
  FLARE_ASSERT(!opt.sparse || opt.op == core::OpKind::kSum);

  sim::Simulator sim;
  PsPinUnit unit(sim, opt.unit);

  const u32 esize = core::dtype_size(opt.dtype);
  const u64 elems_total = std::max<u64>(1, opt.data_bytes / esize);
  const u32 elems_per_pkt =
      static_cast<u32>(opt.packet_payload / esize);
  const u32 ppp = core::sparse_pairs_per_packet(opt.packet_payload, opt.dtype);

  // Block geometry.
  u32 num_blocks;
  u32 span = 0;
  if (opt.sparse) {
    span = std::max<u32>(
        1, static_cast<u32>(static_cast<f64>(ppp) / opt.density));
    num_blocks = static_cast<u32>((elems_total + span - 1) / span);
  } else {
    num_blocks =
        static_cast<u32>((elems_total + elems_per_pkt - 1) / elems_per_pkt);
  }

  // --- workload ---
  std::vector<core::TypedBuffer> host_data;  // dense
  workload::SparseSpec sspec;
  // pairs_by[host][local_block] (sparse)
  std::vector<std::vector<std::vector<core::SparsePair>>> pairs_by;
  core::ReduceOp op(opt.op);
  if (opt.sparse) {
    sspec = workload::SparseSpec{span, opt.density, opt.index_overlap,
                                 opt.dtype, opt.seed};
    pairs_by.resize(opt.hosts);
    for (u32 h = 0; h < opt.hosts; ++h) {
      pairs_by[h].resize(num_blocks);
      for (u32 b = 0; b < num_blocks; ++b)
        pairs_by[h][b] = workload::sparse_block_pairs(sspec, h, b);
    }
  } else {
    host_data =
        workload::make_dense_data(opt.hosts, elems_total, opt.dtype, opt.seed);
  }

  // Per-local-block reference results, computed lazily (shared by rounds).
  std::vector<std::unique_ptr<core::TypedBuffer>> expected(num_blocks);
  auto expected_block = [&](u32 local) -> const core::TypedBuffer& {
    if (!expected[local]) {
      if (opt.sparse) {
        auto buf = std::make_unique<core::TypedBuffer>(
            workload::densify(sspec, pairs_by[0][local]));
        for (u32 h = 1; h < opt.hosts; ++h) {
          buf->accumulate(workload::densify(sspec, pairs_by[h][local]), op);
        }
        expected[local] = std::move(buf);
      } else {
        const u64 first = static_cast<u64>(local) * elems_per_pkt;
        const u32 elems = static_cast<u32>(
            std::min<u64>(elems_per_pkt, elems_total - first));
        auto buf = std::make_unique<core::TypedBuffer>(opt.dtype, elems);
        std::memcpy(buf->data(), host_data[0].at_byte(first),
                    static_cast<std::size_t>(elems) * esize);
        core::TypedBuffer tmp(opt.dtype, elems);
        for (u32 h = 1; h < opt.hosts; ++h) {
          std::memcpy(tmp.data(), host_data[h].at_byte(first),
                      static_cast<std::size_t>(elems) * esize);
          buf->accumulate(tmp, op);
        }
        expected[local] = std::move(buf);
      }
    }
    return *expected[local];
  };

  // --- engine installation (control plane) ---
  core::AllreduceConfig acfg;
  acfg.id = 1;
  acfg.num_children = opt.hosts;
  acfg.dtype = opt.dtype;
  acfg.op = op;
  acfg.elems_per_packet = elems_per_pkt;
  acfg.policy = opt.reproducible ? core::AggPolicy::kTree : opt.policy;
  acfg.num_buffers = opt.num_buffers;
  acfg.reproducible = opt.reproducible;
  acfg.is_root = true;
  acfg.remote_l1 =
      (opt.unit.scheduler == SchedulerKind::kGlobalFcfs);
  acfg.sparse = opt.sparse;
  acfg.hash_storage = opt.hash_storage;
  acfg.block_span = span;
  acfg.pairs_per_packet = ppp;
  acfg.hash_capacity_pairs = opt.hash_capacity_pairs;
  acfg.spill_capacity_pairs = opt.spill_capacity_pairs;
  core::AllreduceEngine& engine = unit.install(acfg);

  // --- pacing ---
  f64 agg_bps = opt.aggregate_ingest_bps;
  if (agg_bps <= 0.0) {
    model::SwitchParams sp;
    sp.cores = opt.unit.total_cores();
    sp.cores_per_cluster = opt.unit.cores_per_cluster;
    sp.subset = opt.unit.subset_cores;
    sp.hosts = opt.hosts;
    sp.packet_payload = opt.packet_payload;
    sp.dtype = opt.dtype;
    sp.costs = opt.unit.costs;
    sp.send_order = opt.order;
    sp.cold_start = opt.unit.charge_cold_start;
    if (opt.sparse) {
      model::SparseParams spp;
      spp.sw = sp;
      spp.density = opt.density;
      spp.hash_storage = opt.hash_storage;
      spp.hash_capacity_pairs = opt.hash_capacity_pairs;
      spp.spill_capacity_pairs = opt.spill_capacity_pairs;
      agg_bps = model::evaluate_sparse(spp, acfg.policy, opt.num_buffers,
                                       opt.data_bytes)
                    .bandwidth_bps;
    } else {
      agg_bps = model::evaluate(sp, acfg.policy, opt.num_buffers,
                                opt.data_bytes)
                    .bandwidth_bps;
    }
    // Feed 5% above the modeled service rate so queueing (not starvation)
    // governs, and let L2 backpressure absorb model error.
    agg_bps *= 1.05;
  }
  const f64 clock_hz = opt.unit.costs.clock_ghz * 1e9;
  const f64 wire_bits =
      static_cast<f64>(opt.packet_payload + core::kPacketWireOverhead) * 8.0;
  const f64 host_interval_cycles =
      wire_bits * static_cast<f64>(opt.hosts) / agg_bps * clock_hz;

  // --- result checking state ---
  SingleSwitchResult res;
  res.correct = true;
  const f64 tol = err_tolerance(opt.dtype, opt.hosts);
  u64 down_pairs = 0;
  std::unordered_map<u32, core::TypedBuffer> sparse_acc;
  u64 blocks_checked = 0;

  unit.set_emit_hook([&](const core::Packet& pkt, SimTime) {
    if (!pkt.is_down()) return;
    // Order-independent checksum: FNV over the payload, summed per packet.
    u64 fnv = 1469598103934665603ull ^ pkt.hdr.block_id;
    for (const std::byte b : pkt.payload) {
      fnv ^= static_cast<u64>(b);
      fnv *= 1099511628211ull;
    }
    res.result_checksum += fnv;
    const u32 local = pkt.hdr.block_id % num_blocks;
    if (!opt.sparse) {
      const core::TypedBuffer& exp = expected_block(local);
      FLARE_ASSERT(pkt.hdr.elem_count == exp.size());
      core::TypedBuffer got(opt.dtype, exp.size());
      std::memcpy(got.data(), pkt.payload.data(), pkt.payload.size());
      res.max_abs_err = std::max(res.max_abs_err, got.max_abs_diff(exp));
      blocks_checked += 1;
      return;
    }
    // Sparse: accumulate pairs; check when the last shard arrives.
    down_pairs += pkt.hdr.elem_count;
    auto [it, inserted] =
        sparse_acc.try_emplace(pkt.hdr.block_id, opt.dtype, span);
    core::TypedBuffer& acc = it->second;
    if (inserted) acc.fill_identity(op);
    if (pkt.hdr.elem_count > 0) {
      const core::SparseView view = core::sparse_view(pkt, opt.dtype);
      const core::ElementCombiner combine = op.combiner(opt.dtype);
      for (u32 i = 0; i < view.count; ++i) {
        combine(acc.at_byte(view.indices[i]),
                view.values + static_cast<std::size_t>(i) * esize);
      }
    }
    if (pkt.is_last_shard()) {
      res.max_abs_err =
          std::max(res.max_abs_err, acc.max_abs_diff(expected_block(local)));
      sparse_acc.erase(it);
      blocks_checked += 1;
    }
  });

  // --- host send loops ---
  std::vector<HostState> hosts_state(opt.hosts);
  const u64 total_blocks = static_cast<u64>(num_blocks) * opt.rounds;
  for (u32 h = 0; h < opt.hosts; ++h) {
    HostState& hs = hosts_state[h];
    hs.id = h;
    hs.schedule.reserve(total_blocks);
    for (u32 r = 0; r < opt.rounds; ++r) {
      for (u32 pos = 0; pos < num_blocks; ++pos) {
        hs.schedule.push_back(
            core::staggered_block(h, opt.hosts, num_blocks, pos, opt.order) +
            r * num_blocks);
      }
    }
    const u64 aseed = opt.arrival_seed != 0 ? opt.arrival_seed : opt.seed;
    hs.arrivals = std::make_unique<workload::ArrivalProcess>(
        opt.arrivals, host_interval_cycles, derive_seed(aseed, 0xA221 + h));
  }

  // Builds the next packet for host h and advances its cursor.
  auto build_next_packet = [&](HostState& hs) -> core::Packet {
    const u32 bid = hs.schedule[hs.next];
    const u32 local = bid % num_blocks;
    if (!opt.sparse) {
      const u64 first = static_cast<u64>(local) * elems_per_pkt;
      const u32 elems = static_cast<u32>(
          std::min<u64>(elems_per_pkt, elems_total - first));
      core::Packet p = core::make_dense_packet(
          acfg.id, bid, static_cast<u16>(hs.id),
          host_data[hs.id].at_byte(first), elems, opt.dtype);
      hs.next += 1;
      res.host_payload_bytes += p.payload_bytes();
      return p;
    }
    const auto& pairs = pairs_by[hs.id][local];
    const u32 shards =
        std::max<u32>(1, static_cast<u32>((pairs.size() + ppp - 1) / ppp));
    core::Packet p;
    if (pairs.empty()) {
      p = core::make_empty_block_packet(acfg.id, bid,
                                        static_cast<u16>(hs.id));
    } else {
      const u32 off = hs.next_shard * ppp;
      const u32 n = std::min<u32>(ppp, static_cast<u32>(pairs.size()) - off);
      const bool last = (hs.next_shard + 1 == shards);
      p = core::make_sparse_packet(
          acfg.id, bid, static_cast<u16>(hs.id),
          std::span<const core::SparsePair>(pairs.data() + off, n),
          opt.dtype, last ? core::kFlagLastShard : 0);
      p.hdr.shard_seq = hs.next_shard;
      if (last) p.hdr.shard_count = shards;
    }
    res.host_payload_bytes += p.payload_bytes();
    hs.next_shard += 1;
    if (hs.next_shard >= shards) {
      hs.next_shard = 0;
      hs.next += 1;
    }
    return p;
  };

  // The send loop: paced injections with L2 backpressure ("congestion is
  // notified before filling the buffer", Section 3).
  const u64 l2_backoff_threshold = opt.unit.l2_packet_bytes * 3 / 4;
  std::function<void(u32)> send_next = [&](u32 h) {
    HostState& hs = hosts_state[h];
    if (hs.next >= hs.schedule.size()) return;
    if (unit.l2_bytes().current() > l2_backoff_threshold) {
      sim.schedule_after(
          static_cast<SimTime>(host_interval_cycles) + 1,
          [&send_next, h] { send_next(h); });
      return;
    }
    core::Packet p = build_next_packet(hs);
    unit.inject(std::move(p), sim.now());
    const f64 gap = std::max(1.0, hs.arrivals->next_gap());
    sim.schedule_after(static_cast<SimTime>(gap),
                       [&send_next, h] { send_next(h); });
  };
  for (u32 h = 0; h < opt.hosts; ++h) {
    // Small deterministic phase offset so hosts do not inject in lockstep.
    const SimTime phase = h * static_cast<SimTime>(
        host_interval_cycles / std::max(1u, opt.hosts));
    sim.schedule_at(phase, [&send_next, h] { send_next(h); });
  }

  sim.run();

  // --- results ---
  const auto& st = engine.stats();
  res.blocks_completed = st.blocks_completed;
  res.duplicates = st.duplicates_dropped;
  res.drops = unit.packets_dropped();
  res.makespan_cycles = unit.last_emission();
  res.goodput_bps = bytes_per_cycles_to_bps(
      res.host_payload_bytes, res.makespan_cycles, opt.unit.costs.clock_ghz);
  res.input_buffer_hwm_bytes = unit.l2_bytes().high_water();
  res.input_buffer_mean_bytes = unit.l2_bytes().time_weighted_mean(sim.now());
  res.working_mem_hwm_bytes = unit.working_memory_high_water();
  res.block_mem_mean_bytes = st.block_mem_bytes.mean();
  res.block_latency_mean_cycles = st.block_latency.mean();
  res.cs_wait_mean_cycles = st.cs_wait_cycles.mean();
  res.mean_queued_packets = unit.queued_packets().time_weighted_mean(sim.now());
  res.emitted_wire_bytes = unit.emitted().bytes;

  const bool all_done = res.blocks_completed == total_blocks &&
                        blocks_checked == total_blocks;
  res.correct = all_done && res.max_abs_err <= tol && res.drops == 0;

  if (opt.sparse) {
    u64 ideal_pairs = 0;
    for (u32 b = 0; b < num_blocks; ++b) {
      ideal_pairs += workload::union_index_count(sspec, opt.hosts, b);
    }
    ideal_pairs *= opt.rounds;
    if (ideal_pairs > 0) {
      res.extra_traffic_pct =
          (static_cast<f64>(down_pairs) / static_cast<f64>(ideal_pairs) -
           1.0) *
          100.0;
    }
  }
  return res;
}

}  // namespace flare::pspin

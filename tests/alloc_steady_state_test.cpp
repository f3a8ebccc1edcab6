// Steady-state heap allocations of the dense in-network data plane.
//
// Once a persistent allreduce is warm, an iteration reuses what earlier
// ones allocated: host inputs and reference, the switches' per-block
// aggregation state, the links' pending rings, the calendar's buckets.
// What an iteration still allocates must therefore not grow with the
// number of blocks it moves.  This executable replaces the global
// operator new with a counting one (it is its own test binary so that no
// other suite runs on the replaced allocator) and compares iterations 3-4
// of a 4-block and a 16-block request.
//
// Every iteration starts on a multiple of one fixed period, longer than
// any iteration here, so its events run at the same offsets as the one
// before: the calendar's bucket vectors, which keep their capacity, are
// warm after the first iterations, and what is counted is the data
// plane's.
//
// The sparse in-network data plane is checked the same way, against the
// number of pairs each host stages per block rather than the number of
// blocks: a block still opens its own stores and trackers, but nothing
// (switch stores, host 0's accumulation, the reference check) may allocate
// per pair.
//
// The calendar's own storage is checked on a bare simulator: it must
// follow the radix-heap buckets a run reaches, not the events it
// dispatches.
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <new>

#include "coll/communicator.hpp"
#include "sim/simulator.hpp"
#include "workload/generators.hpp"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t bytes) {
  g_allocations += 1;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace flare::coll {
namespace {

/// Iteration period of the persistent requests below: 2^26 ps (67 us).
constexpr SimTime kPeriod = SimTime{1} << 26;

/// Heap allocations made by iterations 3 and 4 of a persistent int32
/// allreduce of `blocks` blocks per host on a 16-host radix-4 fat tree,
/// aggregated by `policy` on every tree switch.
std::size_t warm_iteration_allocations(core::AggPolicy policy, u32 blocks) {
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  const net::BuiltTopology topo = net::build_fat_tree(net, spec);
  Communicator comm(net, topo.hosts);
  CollectiveOptions desc;
  desc.algorithm = Algorithm::kFlareDense;
  desc.dtype = core::DType::kInt32;
  desc.data_bytes = blocks * desc.packet_payload;
  desc.auto_policy = false;
  desc.policy = policy;
  PersistentCollective pc = comm.persistent(desc);
  EXPECT_TRUE(pc.in_network());
  std::size_t before = 0;
  for (u32 it = 0; it < 4; ++it) {  // two warm-ups, then two counted
    net.sim().run_until((it + 1) * kPeriod);
    if (it == 2) before = g_allocations;
    const CollectiveResult res = pc.run();
    EXPECT_TRUE(res.ok) << "iteration " << it;
    EXPECT_EQ(res.max_abs_err, 0.0) << "iteration " << it;
    EXPECT_EQ(res.blocks, blocks);
    EXPECT_LT(res.completion_seconds * kPsPerSecond,
              static_cast<f64>(kPeriod));
  }
  return g_allocations - before;
}

TEST(SteadyStateAllocations, IndependentOfBlockCount) {
  for (const core::AggPolicy policy :
       {core::AggPolicy::kTree, core::AggPolicy::kSingleBuffer,
        core::AggPolicy::kMultiBuffer}) {
    SCOPED_TRACE(core::policy_name(policy));
    const std::size_t four = warm_iteration_allocations(policy, 4);
    const std::size_t sixteen = warm_iteration_allocations(policy, 16);
    EXPECT_GT(four, 0u);  // the counter is live
    EXPECT_EQ(four, sixteen);
  }
}

/// Heap allocations made by iterations 3 and 4 of a persistent int32
/// sparse allreduce of 4 blocks of 1024 indices on the 16-host fabric
/// above, each host staging `density` of every block.  Every iteration
/// stages the same pairs, so the warm-ups see the counted iterations'
/// packets and events.  It takes one more warm-up than the dense request
/// before every calendar bucket the iterations fill has grown to its
/// high-water mark (see the file comment).
std::size_t warm_sparse_iteration_allocations(f64 density) {
  constexpr u32 kSpan = 1024;
  constexpr u32 kBlocks = 4;
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  const net::BuiltTopology topo = net::build_fat_tree(net, spec);
  Communicator comm(net, topo.hosts);
  CollectiveOptions desc;
  desc.algorithm = Algorithm::kFlareSparse;
  desc.dtype = core::DType::kInt32;
  desc.sparse.block_span = kSpan;
  desc.sparse.num_blocks = kBlocks;
  desc.sparse.pairs = [density](u32 h, u32 b) {
    const workload::SparseSpec s{kSpan, density, 0.5, core::DType::kInt32,
                                 7};
    return workload::sparse_block_pairs(s, h, b);
  };
  PersistentCollective pc = comm.persistent(desc);
  EXPECT_TRUE(pc.in_network());
  std::size_t before = 0;
  for (u32 it = 0; it < 5; ++it) {  // three warm-ups, then two counted
    net.sim().run_until((it + 1) * kPeriod);
    if (it == 3) before = g_allocations;
    const CollectiveResult res = pc.run();
    EXPECT_TRUE(res.ok) << "iteration " << it;
    EXPECT_EQ(res.max_abs_err, 0.0) << "iteration " << it;
    EXPECT_GT(res.host_pairs_sent, 0u);
    EXPECT_LT(res.completion_seconds * kPsPerSecond,
              static_cast<f64>(kPeriod));
  }
  return g_allocations - before;
}

TEST(SteadyStateAllocations, SparseIndependentOfStagedPairs) {
  // About 20 vs 80 pairs per host and block: one up-packet per host and
  // block either way, four times the pairs for the stores, host 0 and the
  // reference check.
  const std::size_t few_pairs = warm_sparse_iteration_allocations(0.02);
  const std::size_t many_pairs = warm_sparse_iteration_allocations(0.08);
  EXPECT_GT(few_pairs, 0u);  // the counter is live
  EXPECT_EQ(few_pairs, many_pairs);
}

/// One event chain: each dispatch reschedules the chain `step` ticks
/// later until `end`.
struct Chain {
  sim::Simulator* sim;
  SimTime step;
  SimTime end;
  u64* dispatched;
  void operator()() const {
    *dispatched += 1;
    if (sim->now() + step <= end) sim->schedule_after(step, *this);
  }
};

/// Heap allocations of a bare simulator, from its construction to its
/// destruction, that runs four chains of 2^16 + 1-tick hops for `periods`
/// x kPeriod ticks, and the number of events it ran.
struct ChainRun {
  std::size_t allocations = 0;
  u64 dispatched = 0;
};

ChainRun run_chains(u64 periods) {
  ChainRun r;
  const std::size_t before = g_allocations;
  {
    sim::Simulator sim;
    for (SimTime c = 0; c < 4; ++c) {
      sim.schedule_at(c, Chain{&sim, (SimTime{1} << 16) + 1,
                               periods * kPeriod, &r.dispatched});
    }
    sim.run();
  }
  r.allocations = g_allocations - before;
  return r;
}

TEST(SteadyStateAllocations, CalendarStorageFollowsBucketsReached) {
  // The radix heap files a key in bucket bit_width(at ^ bound), so a run
  // that ends before 2^k ticks reaches buckets 0..k only.  Each bucket's
  // vector keeps its capacity and never holds more than the four pending
  // keys: at most three growths (capacity 1, 2, 4) per bucket reached,
  // plus the closure slab's chunk, chunk list and free list.  100x the
  // dispatches adds only the buckets of the extra time bits.
  for (const u64 periods : {3, 30, 300}) {
    SCOPED_TRACE(periods);
    const ChainRun r = run_chains(periods);
    EXPECT_GT(r.dispatched, 4 * periods * 1024 * 9 / 10);
    ASSERT_GT(r.allocations, 0u);  // the counter is live
    const auto buckets =
        static_cast<std::size_t>(std::bit_width(periods * kPeriod)) + 1;
    EXPECT_LE(r.allocations, 3 * buckets + 5);
  }
}

}  // namespace
}  // namespace flare::coll

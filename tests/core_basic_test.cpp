// Core building blocks: dtypes (incl. software fp16), reduction operators
// (built-in + custom, F1), packet encode/decode, completion trackers
// (retransmission bitmap, sparse shard counters), policy selection
// thresholds, staggered sending schedules, buffer-pool accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "core/block_state.hpp"
#include "core/buffer_pool.hpp"
#include "core/packet.hpp"
#include "core/policy.hpp"
#include "core/reduce_op.hpp"
#include "core/staggered.hpp"
#include "core/typed_buffer.hpp"

namespace flare::core {
namespace {

// ---------------------------------------------------------------- dtypes --

TEST(DType, Sizes) {
  EXPECT_EQ(dtype_size(DType::kInt8), 1u);
  EXPECT_EQ(dtype_size(DType::kInt16), 2u);
  EXPECT_EQ(dtype_size(DType::kInt32), 4u);
  EXPECT_EQ(dtype_size(DType::kInt64), 8u);
  EXPECT_EQ(dtype_size(DType::kFloat16), 2u);
  EXPECT_EQ(dtype_size(DType::kFloat32), 4u);
}

TEST(DType, Names) {
  EXPECT_EQ(dtype_name(DType::kInt32), "int32");
  EXPECT_EQ(dtype_name(DType::kFloat16), "float16");
}

TEST(Float16, ExactSmallIntegers) {
  for (int i = -128; i <= 128; ++i) {
    const f32 v = static_cast<f32>(i);
    EXPECT_EQ(f16_to_f32(f32_to_f16(v)), v) << i;
  }
}

TEST(Float16, RoundTripRepresentables) {
  // All powers of two in half range round-trip exactly.
  for (int e = -14; e <= 15; ++e) {
    const f32 v = std::ldexp(1.0f, e);
    EXPECT_EQ(f16_to_f32(f32_to_f16(v)), v) << e;
  }
}

TEST(Float16, SignedZero) {
  EXPECT_EQ(f32_to_f16(0.0f), 0x0000u);
  EXPECT_EQ(f32_to_f16(-0.0f), 0x8000u);
}

TEST(Float16, InfinityAndOverflow) {
  EXPECT_EQ(f32_to_f16(1e10f), 0x7C00u);
  EXPECT_EQ(f32_to_f16(-1e10f), 0xFC00u);
  EXPECT_TRUE(std::isinf(f16_to_f32(0x7C00u)));
}

TEST(Float16, NanPropagates) {
  const u16 h = f32_to_f16(std::numeric_limits<f32>::quiet_NaN());
  EXPECT_TRUE(std::isnan(f16_to_f32(h)));
}

TEST(Float16, SubnormalsRoundTrip) {
  const f32 smallest = std::ldexp(1.0f, -24);  // smallest half subnormal
  EXPECT_EQ(f16_to_f32(f32_to_f16(smallest)), smallest);
  EXPECT_EQ(f32_to_f16(std::ldexp(1.0f, -30)), 0u);  // flushes to zero
}

TEST(Float16, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10: ties to even -> 1.
  const f32 halfway = 1.0f + std::ldexp(1.0f, -11);
  EXPECT_EQ(f16_to_f32(f32_to_f16(halfway)), 1.0f);
  // Just above halfway rounds up.
  const f32 above = 1.0f + std::ldexp(1.0f, -11) + std::ldexp(1.0f, -16);
  EXPECT_EQ(f16_to_f32(f32_to_f16(above)), 1.0f + std::ldexp(1.0f, -10));
}

// ------------------------------------------------------------- operators --

struct OpCase {
  OpKind kind;
  f64 a, b, expected;
};

class BuiltinOpTest : public ::testing::TestWithParam<std::tuple<DType, OpCase>> {};

TEST_P(BuiltinOpTest, SingleElement) {
  const auto [dtype, c] = GetParam();
  ReduceOp op(c.kind);
  if (!op.supports(dtype)) GTEST_SKIP();
  TypedBuffer acc(dtype, 1), in(dtype, 1);
  acc.set_from_f64(0, c.a);
  in.set_from_f64(0, c.b);
  acc.accumulate(in, op);
  EXPECT_DOUBLE_EQ(acc.get_as_f64(0), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, BuiltinOpTest,
    ::testing::Combine(
        ::testing::Values(DType::kInt8, DType::kInt16, DType::kInt32,
                          DType::kInt64, DType::kFloat16, DType::kFloat32),
        ::testing::Values(OpCase{OpKind::kSum, 3, 4, 7},
                          OpCase{OpKind::kProd, 3, 4, 12},
                          OpCase{OpKind::kMin, 3, 4, 3},
                          OpCase{OpKind::kMax, 3, 4, 4},
                          OpCase{OpKind::kBand, 6, 3, 2},
                          OpCase{OpKind::kBor, 6, 3, 7},
                          OpCase{OpKind::kBxor, 6, 3, 5})));

TEST(ReduceOp, BitwiseRejectsFloat) {
  ReduceOp band(OpKind::kBand);
  EXPECT_FALSE(band.supports(DType::kFloat32));
  EXPECT_FALSE(band.supports(DType::kFloat16));
  EXPECT_TRUE(band.supports(DType::kInt32));
}

class IdentityTest : public ::testing::TestWithParam<
                         std::tuple<DType, OpKind>> {};

TEST_P(IdentityTest, IdentityIsNeutral) {
  const auto [dtype, kind] = GetParam();
  ReduceOp op(kind);
  if (!op.supports(dtype)) GTEST_SKIP();
  TypedBuffer acc(dtype, 8);
  acc.fill_identity(op);
  TypedBuffer in(dtype, 8);
  Rng rng(11);
  in.fill_random(rng);
  TypedBuffer expected = in;
  acc.accumulate(in, op);
  // identity op x == x for every built-in operator.
  EXPECT_EQ(acc.count_mismatches(expected), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, IdentityTest,
    ::testing::Combine(
        ::testing::Values(DType::kInt8, DType::kInt16, DType::kInt32,
                          DType::kInt64, DType::kFloat32),
        ::testing::Values(OpKind::kSum, OpKind::kProd, OpKind::kMin,
                          OpKind::kMax, OpKind::kBand, OpKind::kBor,
                          OpKind::kBxor)));

// fill_random pinned bit for bit per dtype and range: an FNV-1a hash, over
// seeds 0-63, of each filled buffer followed by the generator's next output
// (so the number of draws is pinned too).  The constants were computed with
// the plain floating-point fill loop.  For integer dtypes (-8, 8),
// (-128, 128), (0, 1) and (-3, 5) have power-of-two spans and take the
// exact integer path; (-3, 4) does not and takes the floating-point loop.
TEST(TypedBuffer, FillRandomIsPinned) {
  constexpr std::pair<f64, f64> kRanges[] = {
      {-8.0, 8.0}, {-128.0, 128.0}, {0.0, 1.0}, {-3.0, 5.0}, {-3.0, 4.0}};
  // [dtype in kAllDTypes order][range]
  constexpr u64 kPinned[6][5] = {
      {0xa3f84dff451e50a0ull, 0xbf01b86f450a087cull, 0xd7d71dc2728e714bull,
       0x30adeb50e07a7811ull, 0x7c92f6b82a335284ull},
      {0xa8e9d9260a933e1dull, 0x7c1db0829b4ec7b7ull, 0x69a1878814cd3601ull,
       0x2d87514405a8f1ddull, 0x065874038cbc837full},
      {0x28d9229bb6155ec7ull, 0x0108e1f5d38613e1ull, 0x12d2e4ea03e44309ull,
       0x19c03b059bd65f85ull, 0x1dc3f7d6f3088a39ull},
      {0x0c77acbc880a478bull, 0x7e87cfb57678755dull, 0x596844372c87e5f9ull,
       0xaf0d5dccc694b115ull, 0x91f8875c1ddc244dull},
      {0x119394b13a271294ull, 0xdf036b065d368f59ull, 0x182ba16ae1dc8687ull,
       0x4b88d6f0ff745a6cull, 0x743cd30152f734b5ull},
      {0x17540e62c377d423ull, 0x2642b5f89225de93ull, 0x66796048d47c994aull,
       0xb24c970dab8e2624ull, 0x052e5bcd370db0c2ull}};
  auto fnv = [](u64 h, const void* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<u64>(static_cast<const unsigned char*>(p)[i]);
      h *= 1099511628211ull;
    }
    return h;
  };
  for (std::size_t d = 0; d < std::size(kAllDTypes); ++d) {
    for (std::size_t r = 0; r < std::size(kRanges); ++r) {
      u64 h = 1469598103934665603ull;
      for (u64 seed = 0; seed < 64; ++seed) {
        Rng rng(seed);
        TypedBuffer buf(kAllDTypes[d], 203);
        buf.fill_random(rng, kRanges[r].first, kRanges[r].second);
        h = fnv(h, buf.data(), buf.size_bytes());
        const u64 next = rng();
        h = fnv(h, &next, sizeof(next));
      }
      EXPECT_EQ(h, kPinned[d][r])
          << dtype_name(kAllDTypes[d]) << " [" << kRanges[r].first << ", "
          << kRanges[r].second << ")";
    }
  }
}

TEST(ReduceOp, VectorSum) {
  ReduceOp op(OpKind::kSum);
  TypedBuffer a(DType::kInt32, 100), b(DType::kInt32, 100);
  for (std::size_t i = 0; i < 100; ++i) {
    a.set_from_f64(i, static_cast<f64>(i));
    b.set_from_f64(i, 2.0 * static_cast<f64>(i));
  }
  a.accumulate(b, op);
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.get_as_f64(i), 3.0 * static_cast<f64>(i));
}

TEST(ReduceOp, CustomOperatorRuns) {
  // F1: arbitrary user function — saturating add clamped to [-100, 100].
  auto op = ReduceOp::custom_binary(
      "sat_add",
      [](auto x, auto y) {
        const f64 s = static_cast<f64>(x) + static_cast<f64>(y);
        return std::clamp(s, -100.0, 100.0);
      },
      0.0);
  EXPECT_EQ(op.kind(), OpKind::kCustom);
  EXPECT_EQ(op.name(), "sat_add");
  TypedBuffer acc(DType::kInt32, 2), in(DType::kInt32, 2);
  acc.set_from_f64(0, 90);
  in.set_from_f64(0, 45);
  acc.set_from_f64(1, -1);
  in.set_from_f64(1, -2);
  acc.accumulate(in, op);
  EXPECT_DOUBLE_EQ(acc.get_as_f64(0), 100.0);  // saturated
  EXPECT_DOUBLE_EQ(acc.get_as_f64(1), -3.0);
}

TEST(ReduceOp, CustomIdentity) {
  auto op = ReduceOp::custom_binary(
      "max_mag",
      [](auto x, auto y) { return std::abs(x) >= std::abs(y) ? x : y; },
      0.0);
  TypedBuffer acc(DType::kFloat32, 4);
  acc.fill_identity(op);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(acc.get_as_f64(i), 0.0);
}

TEST(ReduceOp, CustomNonCommutativeFlag) {
  auto op = ReduceOp::custom_binary(
      "left", [](auto x, auto) { return x; }, 0.0, /*commutative=*/false);
  EXPECT_FALSE(op.commutative());
}

TEST(TypedBuffer, ReferenceReduceMatchesManual) {
  Rng rng(21);
  std::vector<TypedBuffer> inputs;
  for (int h = 0; h < 5; ++h) {
    TypedBuffer b(DType::kInt64, 32);
    b.fill_random(rng);
    inputs.push_back(std::move(b));
  }
  ReduceOp sum(OpKind::kSum);
  const TypedBuffer result = reference_reduce(inputs, sum);
  for (std::size_t i = 0; i < 32; ++i) {
    f64 expect = 0;
    for (const auto& in : inputs) expect += in.get_as_f64(i);
    EXPECT_DOUBLE_EQ(result.get_as_f64(i), expect);
  }
}

// --------------------------------------------------------------- packets --

TEST(Packet, DenseRoundTrip) {
  std::vector<i32> data(64);
  std::iota(data.begin(), data.end(), -10);
  Packet p = make_dense_packet(7, 3, 2, data.data(), 64, DType::kInt32);
  EXPECT_EQ(p.hdr.allreduce_id, 7u);
  EXPECT_EQ(p.hdr.block_id, 3u);
  EXPECT_EQ(p.hdr.child_index, 2u);
  EXPECT_EQ(p.hdr.elem_count, 64u);
  EXPECT_TRUE(p.is_last_shard());
  EXPECT_FALSE(p.is_sparse());
  EXPECT_EQ(p.payload_bytes(), 256u);
  EXPECT_EQ(p.wire_bytes(), 256u + kPacketWireOverhead);
  const auto* back = static_cast<const i32*>(dense_payload(p));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(back[i], data[static_cast<size_t>(i)]);
}

TEST(Packet, SparseRoundTrip) {
  std::vector<SparsePair> pairs = {{5, 1.5}, {100, -2.25}, {7, 3.0}};
  Packet p = make_sparse_packet(1, 2, 0, pairs, DType::kFloat32,
                                kFlagLastShard);
  EXPECT_TRUE(p.is_sparse());
  EXPECT_TRUE(p.is_last_shard());
  EXPECT_EQ(p.hdr.elem_count, 3u);
  const SparseView v = sparse_view(p, DType::kFloat32);
  EXPECT_EQ(v.indices[0], 5u);
  EXPECT_EQ(v.indices[1], 100u);
  EXPECT_EQ(v.indices[2], 7u);
  EXPECT_DOUBLE_EQ(v.value_as_f64(0), 1.5);
  EXPECT_DOUBLE_EQ(v.value_as_f64(1), -2.25);
  EXPECT_DOUBLE_EQ(v.value_as_f64(2), 3.0);
}

TEST(Packet, SparseIntNarrowing) {
  std::vector<SparsePair> pairs = {{0, -7.0}, {1, 120.0}};
  Packet p = make_sparse_packet(1, 0, 0, pairs, DType::kInt8);
  const SparseView v = sparse_view(p, DType::kInt8);
  EXPECT_DOUBLE_EQ(v.value_as_f64(0), -7.0);
  EXPECT_DOUBLE_EQ(v.value_as_f64(1), 120.0);
  EXPECT_EQ(p.payload_bytes(), 2u * (4 + 1));
}

TEST(Packet, EmptyBlock) {
  Packet p = make_empty_block_packet(9, 4, 3);
  EXPECT_TRUE(p.is_sparse());
  EXPECT_TRUE(p.is_last_shard());
  EXPECT_EQ(p.hdr.flags & kFlagEmptyBlock, kFlagEmptyBlock);
  EXPECT_EQ(p.hdr.shard_count, 1u);
  EXPECT_EQ(p.payload_bytes(), 0u);
}

TEST(Packet, PairsPerPacket) {
  EXPECT_EQ(sparse_pairs_per_packet(1024, DType::kFloat32), 128u);
  EXPECT_EQ(sparse_pairs_per_packet(1024, DType::kInt8), 204u);
  EXPECT_EQ(sparse_pair_bytes(DType::kInt64), 12u);
}

// ----------------------------------------------------- completion state --

TEST(ChildBitmap, MarksAndCompletes) {
  ChildBitmap bm(3);
  EXPECT_FALSE(bm.complete());
  EXPECT_TRUE(bm.mark(0));
  EXPECT_TRUE(bm.mark(2));
  EXPECT_FALSE(bm.complete());
  EXPECT_TRUE(bm.mark(1));
  EXPECT_TRUE(bm.complete());
}

TEST(ChildBitmap, DetectsRetransmission) {
  ChildBitmap bm(4);
  EXPECT_TRUE(bm.mark(1));
  EXPECT_FALSE(bm.mark(1));  // duplicate must not be aggregated again
  EXPECT_EQ(bm.seen(), 1u);
}

TEST(ChildBitmap, WideMembership) {
  ChildBitmap bm(130);  // multiple 64-bit words
  for (u32 i = 0; i < 130; ++i) EXPECT_TRUE(bm.mark(i));
  EXPECT_TRUE(bm.complete());
  for (u32 i = 0; i < 130; ++i) EXPECT_FALSE(bm.mark(i));
}

TEST(ChildBitmap, InlineWordBoundaryAndVectorFallback) {
  // 64 children fit the inline word; 65 take the word vector.
  for (const u32 n : {63u, 64u, 65u, 200u}) {
    ChildBitmap bm(n);
    for (u32 i = 0; i < n; i += 2) EXPECT_TRUE(bm.mark(i)) << n << "/" << i;
    for (u32 i = 0; i < n; ++i) EXPECT_EQ(bm.test(i), i % 2 == 0) << n;
    for (u32 i = 1; i < n; i += 2) EXPECT_TRUE(bm.mark(i)) << n << "/" << i;
    EXPECT_TRUE(bm.complete()) << n;
    EXPECT_FALSE(bm.mark(n - 1)) << n;
    EXPECT_EQ(bm.seen(), n);
  }
}

TEST(ChildBitmap, ResetReusesOneBitmapAcrossSizes) {
  // An aggregator block reuses its bitmap from block to block; every reset
  // must start from a clean slate whatever the previous size was.
  ChildBitmap bm(130);
  for (u32 i = 0; i < 130; i += 3) bm.mark(i);
  bm.reset(5);  // wide -> inline
  EXPECT_EQ(bm.expected(), 5u);
  EXPECT_EQ(bm.seen(), 0u);
  for (u32 i = 0; i < 5; ++i) EXPECT_FALSE(bm.test(i));
  EXPECT_TRUE(bm.mark(4));
  bm.reset(64);  // inline -> inline: bit 4 must be gone
  EXPECT_FALSE(bm.test(4));
  for (u32 i = 0; i < 64; ++i) EXPECT_TRUE(bm.mark(i));
  EXPECT_TRUE(bm.complete());
  bm.reset(200);  // inline -> wide, larger than the first vector
  EXPECT_FALSE(bm.complete());
  for (u32 i = 0; i < 200; ++i) EXPECT_FALSE(bm.test(i)) << i;
  EXPECT_TRUE(bm.mark(199));
  EXPECT_TRUE(bm.mark(0));
  bm.reset(70);  // wide -> narrower wide
  for (u32 i = 0; i < 70; ++i) EXPECT_FALSE(bm.test(i)) << i;
  bm.reset(0);  // closed
  EXPECT_EQ(bm.expected(), 0u);
  EXPECT_EQ(bm.seen(), 0u);
}

TEST(BlockSet, MembershipAcrossWordBoundariesAndClear) {
  BlockSet s;
  EXPECT_FALSE(s.contains(0));
  EXPECT_FALSE(s.contains(1000));  // beyond the words held: absent
  for (const u32 id : {0u, 63u, 64u, 130u}) s.insert(id);
  for (u32 id = 0; id < 200; ++id) {
    const bool member = id == 0 || id == 63 || id == 64 || id == 130;
    EXPECT_EQ(s.contains(id), member) << id;
  }
  s.insert(63);  // idempotent
  EXPECT_TRUE(s.contains(63));
  s.clear();
  for (const u32 id : {0u, 63u, 64u, 130u}) EXPECT_FALSE(s.contains(id)) << id;
  s.insert(5);  // reused after clear: no stale bits come back
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(130));
}

TEST(ShardTracker, CompletesOnAnnouncedCount) {
  ShardTracker st;
  EXPECT_TRUE(st.mark(0));
  EXPECT_FALSE(st.complete());  // count unknown yet
  EXPECT_TRUE(st.mark(2));
  st.announce_total(3);
  EXPECT_FALSE(st.complete());
  EXPECT_TRUE(st.mark(1));
  EXPECT_TRUE(st.complete());
}

TEST(ShardTracker, OutOfOrderLastShardFirst) {
  ShardTracker st;
  st.announce_total(2);
  EXPECT_TRUE(st.mark(1));
  EXPECT_FALSE(st.complete());
  EXPECT_TRUE(st.mark(0));
  EXPECT_TRUE(st.complete());
}

TEST(ShardTracker, DeduplicatesRetransmits) {
  ShardTracker st;
  EXPECT_TRUE(st.mark(0));
  EXPECT_FALSE(st.mark(0));
  st.announce_total(1);
  EXPECT_TRUE(st.complete());
  EXPECT_EQ(st.received(), 1u);
}

TEST(SparseBlockTracker, PerChildCompletion) {
  SparseBlockTracker t(2);
  auto r = t.mark(0, 0, true, 1);
  EXPECT_TRUE(r.fresh);
  EXPECT_TRUE(r.child_completed);
  EXPECT_FALSE(t.complete());
  r = t.mark(1, 0, false, 0);
  EXPECT_TRUE(r.fresh);
  EXPECT_FALSE(r.child_completed);
  r = t.mark(1, 1, true, 2);
  EXPECT_TRUE(r.child_completed);
  EXPECT_TRUE(t.complete());
}

TEST(SparseBlockTracker, DuplicateDoesNotDoubleComplete) {
  SparseBlockTracker t(1);
  auto r = t.mark(0, 0, true, 1);
  EXPECT_TRUE(r.child_completed);
  r = t.mark(0, 0, true, 1);
  EXPECT_FALSE(r.fresh);
  EXPECT_FALSE(r.child_completed);
  EXPECT_EQ(t.complete_children(), 1u);
}

// -------------------------------------------------------- policy choice --

TEST(PolicySelect, PaperThresholds) {
  EXPECT_EQ(select_policy(1024 * 1024, false).policy,
            AggPolicy::kSingleBuffer);
  const auto m4 = select_policy(300 * 1024, false);
  EXPECT_EQ(m4.policy, AggPolicy::kMultiBuffer);
  EXPECT_EQ(m4.num_buffers, 4u);
  const auto m2 = select_policy(200 * 1024, false);
  EXPECT_EQ(m2.policy, AggPolicy::kMultiBuffer);
  EXPECT_EQ(m2.num_buffers, 2u);
  EXPECT_EQ(select_policy(64 * 1024, false).policy, AggPolicy::kTree);
}

TEST(PolicySelect, BoundariesAreExclusive) {
  EXPECT_EQ(select_policy(512 * 1024, false).policy,
            AggPolicy::kMultiBuffer);  // exactly 512 KiB -> multi(4)
  EXPECT_EQ(select_policy(512 * 1024 + 1, false).policy,
            AggPolicy::kSingleBuffer);
  EXPECT_EQ(select_policy(128 * 1024, false).policy, AggPolicy::kTree);
}

TEST(PolicySelect, ReproducibleAlwaysTree) {
  for (const u64 bytes : {1_KiB, 128_KiB, 512_KiB, 8_MiB}) {
    EXPECT_EQ(select_policy(bytes, true).policy, AggPolicy::kTree) << bytes;
  }
}

// ------------------------------------------------------------ staggered --

TEST(Staggered, AlignedIsIdentity) {
  for (u32 pos = 0; pos < 10; ++pos) {
    EXPECT_EQ(staggered_block(3, 4, 10, pos, SendOrder::kAligned), pos);
  }
}

TEST(Staggered, EveryHostSendsEveryBlockOnce) {
  const u32 P = 4, NB = 10;
  for (u32 h = 0; h < P; ++h) {
    auto sched = send_schedule(h, P, NB, SendOrder::kStaggered);
    std::vector<bool> seen(NB, false);
    for (const u32 b : sched) {
      EXPECT_FALSE(seen[b]);
      seen[b] = true;
    }
    for (const bool s : seen) EXPECT_TRUE(s);
  }
}

TEST(Staggered, HostsStartAtDistinctOffsets) {
  const u32 P = 4, NB = 16;
  std::set<u32> firsts;
  for (u32 h = 0; h < P; ++h)
    firsts.insert(staggered_block(h, P, NB, 0, SendOrder::kStaggered));
  EXPECT_EQ(firsts.size(), P);
}

TEST(Staggered, DeltaCFactor) {
  EXPECT_DOUBLE_EQ(staggered_delta_c_factor(4, 16, SendOrder::kAligned), 1.0);
  EXPECT_DOUBLE_EQ(staggered_delta_c_factor(4, 16, SendOrder::kStaggered),
                   4.0);
  EXPECT_DOUBLE_EQ(staggered_delta_c_factor(4, 1, SendOrder::kStaggered),
                   1.0);
}

// ----------------------------------------------------------- buffer pool --

TEST(BufferPool, AccountsAndHighWater) {
  BufferPool pool(1000);
  EXPECT_TRUE(pool.acquire(600, 0));
  EXPECT_TRUE(pool.acquire(400, 10));
  EXPECT_FALSE(pool.acquire(1, 20));  // exhausted
  EXPECT_EQ(pool.failed_acquires(), 1u);
  pool.release(600, 30);
  EXPECT_TRUE(pool.acquire(100, 40));
  EXPECT_EQ(pool.high_water(), 1000u);
  EXPECT_EQ(pool.in_use(), 500u);
}

TEST(BufferPool, UnlimitedNeverFails) {
  BufferPool pool(0);
  EXPECT_TRUE(pool.acquire(1ull << 40, 0));
  EXPECT_EQ(pool.high_water(), 1ull << 40);
}

TEST(BufferPoolDeath, OverReleaseAborts) {
  BufferPool pool(100);
  EXPECT_TRUE(pool.acquire(10, 0));
  EXPECT_DEATH(pool.release(20, 1), "releasing more than acquired");
}

// ---------------------------------------------------------- payload arena --

TEST(PayloadArena, RecyclesBlocksAcrossPacketLifetimes) {
  // Park a block on the freelist, then demand the next same-class
  // allocation comes back from it, not the heap.
  { PayloadVec v(1000); }
  const auto before = pool_detail::payload_pool_stats();
  EXPECT_GE(before.cached_blocks, 1u);
  { PayloadVec v(1000); }
  const auto after = pool_detail::payload_pool_stats();
  EXPECT_GE(after.reused, before.reused + 1);
  EXPECT_EQ(after.fresh, before.fresh);  // no new heap traffic
}

TEST(PayloadArena, SizeClassRoundingSharesBlocks) {
  // 100 B and 128 B land in the same power-of-two class, so the freed
  // block of one serves the other.
  { PayloadVec v(100); }
  const auto before = pool_detail::payload_pool_stats();
  { PayloadVec v(128); }
  const auto after = pool_detail::payload_pool_stats();
  EXPECT_GE(after.reused, before.reused + 1);
}

TEST(PayloadArena, OversizedRequestsBypassTheClasses) {
  const auto before = pool_detail::payload_pool_stats();
  { PayloadVec v(3 * 1024 * 1024); }  // > 2 MiB ceiling -> plain heap
  const auto after = pool_detail::payload_pool_stats();
  EXPECT_EQ(after.cached_blocks, before.cached_blocks);
  EXPECT_GE(after.fresh, before.fresh + 1);
}

TEST(PayloadArena, PooledPacketsRoundTrip) {
  std::vector<f32> data(64, 2.5f);
  Packet p = make_dense_packet(1, 2, 3, data.data(), 64, DType::kFloat32);
  PacketPtr sp = make_pooled_packet(std::move(p));
  ASSERT_EQ(sp->hdr.elem_count, 64u);
  EXPECT_EQ(sp->payload.size(), 64 * sizeof(f32));
  f32 back = 0;
  std::memcpy(&back, sp->payload.data(), sizeof(back));
  EXPECT_EQ(back, 2.5f);
}

}  // namespace
}  // namespace flare::core

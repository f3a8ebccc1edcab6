// Property-based suites over the core data structures:
//  * TreeAggregator::TreeShape structural invariants for any child count;
//  * ChildBitmap random mark/duplicate sweeps;
//  * packet encode/decode round-trips across every dtype and payload shape;
//  * cost-model consistency (paper calibration identities and monotonicity);
//  * staggered-sending schedule properties;
//  * ReduceOp kernel-table dispatch vs a naive scalar oracle, identity
//    no-op laws, and the float min/max ±inf identity regression;
//  * fp16 random round-trip against the double-rounding-free reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "core/cost_model.hpp"
#include "core/dense_policies.hpp"
#include "core/packet.hpp"
#include "core/reduce_op.hpp"
#include "core/staggered.hpp"
#include "core/typed_buffer.hpp"

namespace flare::core {
namespace {

// ------------------------------------------------------------ tree shape --

class TreeShapeSweep : public ::testing::TestWithParam<u32> {};

TEST_P(TreeShapeSweep, StructuralInvariants) {
  const u32 p = GetParam();
  const auto shape = TreeAggregator::build_shape(p);
  // A full binary tree over p leaves has exactly 2p-1 nodes.
  ASSERT_EQ(shape.nodes.size(), 2 * p - 1);

  u32 leaves = 0;
  std::set<u32> covered;
  for (u32 i = 0; i < shape.nodes.size(); ++i) {
    const auto& n = shape.nodes[i];
    ASSERT_LT(n.lo, n.hi);
    if (n.left < 0) {
      // Leaf: covers exactly one child, has no children.
      EXPECT_EQ(n.hi - n.lo, 1u);
      EXPECT_LT(n.right, 0);
      EXPECT_TRUE(covered.insert(n.lo).second);
      ++leaves;
    } else {
      // Internal: children partition the range, parent links are coherent.
      const auto& l = shape.nodes[static_cast<u32>(n.left)];
      const auto& r = shape.nodes[static_cast<u32>(n.right)];
      EXPECT_EQ(l.lo, n.lo);
      EXPECT_EQ(l.hi, r.lo);
      EXPECT_EQ(r.hi, n.hi);
      EXPECT_EQ(l.parent, static_cast<i32>(i));
      EXPECT_EQ(r.parent, static_cast<i32>(i));
      // Balanced split: halves differ by at most one.
      EXPECT_LE(std::max(l.hi - l.lo, r.hi - r.lo) -
                    std::min(l.hi - l.lo, r.hi - r.lo),
                1u);
    }
  }
  EXPECT_EQ(leaves, p);
  // Root is node 0 and covers everything.
  EXPECT_EQ(shape.nodes[0].lo, 0u);
  EXPECT_EQ(shape.nodes[0].hi, p);
  EXPECT_EQ(shape.nodes[0].parent, -1);
  // leaf_of is consistent.
  for (u32 c = 0; c < p; ++c) {
    const u32 leaf = shape.leaf_of(c);
    EXPECT_EQ(shape.nodes[leaf].lo, c);
    EXPECT_LT(shape.nodes[leaf].left, 0);
  }
}

TEST_P(TreeShapeSweep, DepthIsLogarithmic) {
  const u32 p = GetParam();
  const auto shape = TreeAggregator::build_shape(p);
  u32 max_depth = 0;
  for (u32 i = 0; i < shape.nodes.size(); ++i) {
    u32 depth = 0;
    i32 cur = static_cast<i32>(i);
    while (shape.nodes[static_cast<u32>(cur)].parent >= 0) {
      cur = shape.nodes[static_cast<u32>(cur)].parent;
      ++depth;
    }
    max_depth = std::max(max_depth, depth);
  }
  const u32 bound =
      static_cast<u32>(std::ceil(std::log2(std::max(2u, p)))) + 1;
  EXPECT_LE(max_depth, bound);
}

INSTANTIATE_TEST_SUITE_P(ChildCounts, TreeShapeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 13,
                                           16, 17, 31, 32, 33, 64, 100,
                                           128, 500));

// --------------------------------------------------------------- bitmap ---

class BitmapSweep : public ::testing::TestWithParam<u32> {};

TEST_P(BitmapSweep, RandomMarkOrderAlwaysCompletesOnce) {
  const u32 n = GetParam();
  Rng rng(derive_seed(31337, n));
  ChildBitmap bm(n);
  // Random permutation with interleaved duplicates.
  std::vector<u32> order;
  for (u32 i = 0; i < n; ++i) order.push_back(i);
  for (u32 i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform_u64(i)]);
  u32 fresh = 0, dups = 0, completions = 0;
  for (u32 i = 0; i < n; ++i) {
    if (bm.mark(order[i])) ++fresh;
    if (bm.complete()) completions = 1;
    if (rng.bernoulli(0.3)) {
      // Retransmission: duplicate something already marked.
      const u32 victim = order[rng.uniform_u64(i + 1)];
      EXPECT_FALSE(bm.mark(victim));
      ++dups;
    }
  }
  EXPECT_EQ(fresh, n);
  EXPECT_GE(dups, 0u);
  EXPECT_EQ(completions, 1u);
  EXPECT_TRUE(bm.complete());
  for (u32 c = 0; c < n; ++c) EXPECT_TRUE(bm.test(c));
}

INSTANTIATE_TEST_SUITE_P(Widths, BitmapSweep,
                         ::testing::Values(1, 2, 63, 64, 65, 127, 128, 200));

// --------------------------------------------------------------- packets --

class PacketDtypeSweep : public ::testing::TestWithParam<DType> {};

TEST_P(PacketDtypeSweep, DenseRoundTripRandomData) {
  const DType t = GetParam();
  Rng rng(derive_seed(99, static_cast<u64>(t)));
  for (const u32 elems : {1u, 7u, 256u, 1000u}) {
    TypedBuffer buf(t, elems);
    buf.fill_random(rng);
    Packet p = make_dense_packet(3, 9, 1, buf.data(), elems, t);
    EXPECT_EQ(p.payload.size(), elems * dtype_size(t));
    TypedBuffer back(t, elems);
    std::memcpy(back.data(), p.payload.data(), p.payload.size());
    EXPECT_TRUE(back.bitwise_equal(buf));
  }
}

TEST_P(PacketDtypeSweep, SparseRoundTripRandomPairs) {
  const DType t = GetParam();
  Rng rng(derive_seed(98, static_cast<u64>(t)));
  std::vector<SparsePair> pairs;
  for (u32 i = 0; i < 77; ++i) {
    f64 v = rng.uniform(-100, 100);
    if (!dtype_is_float(t)) v = std::floor(v);
    pairs.push_back({static_cast<u32>(rng.uniform_u64(1 << 20)), v});
  }
  Packet p = make_sparse_packet(1, 2, 3, pairs, t, kFlagLastShard);
  const SparseView v = sparse_view(p, t);
  ASSERT_EQ(v.count, pairs.size());
  for (u32 i = 0; i < v.count; ++i) {
    EXPECT_EQ(v.indices[i], pairs[i].index);
    // The wire value is the dtype-narrowed staging value.
    TypedBuffer one(t, 1);
    one.set_from_f64(0, pairs[i].value);
    EXPECT_EQ(v.value_as_f64(i), one.get_as_f64(0)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, PacketDtypeSweep,
                         ::testing::Values(DType::kInt8, DType::kInt16,
                                           DType::kInt32, DType::kInt64,
                                           DType::kFloat16,
                                           DType::kFloat32));

// ------------------------------------------------------------- cost model -

TEST(CostModel, PaperCalibrationIdentities) {
  const CostModel c;
  // 256 fp32 elements at 4 cycles each = 1024 cycles = "1 ns per byte" at
  // 1 GHz for a 1 KiB payload (Section 6).
  EXPECT_EQ(c.aggregation_cycles(DType::kFloat32, 256), 1024u);
  // DMA copy is 16x cheaper than aggregation (64 vs 1024, Section 6.3).
  EXPECT_EQ(c.dma_packet_cycles * 16, 1024u);
  // SIMD: 2 x int16 and 4 x int8 per int32-op slot.
  EXPECT_DOUBLE_EQ(c.cycles_per_elem(DType::kInt16) * 2,
                   c.cycles_per_elem(DType::kInt32));
  EXPECT_DOUBLE_EQ(c.cycles_per_elem(DType::kInt8) * 4,
                   c.cycles_per_elem(DType::kInt32));
}

TEST(CostModel, RemoteL1PenaltyApplied) {
  const CostModel c;
  EXPECT_EQ(c.aggregation_cycles(DType::kFloat32, 100, true),
            static_cast<u64>(c.aggregation_cycles(DType::kFloat32, 100) *
                             c.remote_l1_penalty));
}

TEST(CostModel, MonotonicInElementCount) {
  const CostModel c;
  for (const DType t : kAllDTypes) {
    u64 prev = 0;
    for (const u64 n : {1u, 10u, 100u, 1000u}) {
      const u64 cur = c.aggregation_cycles(t, n);
      EXPECT_GE(cur, prev);
      prev = cur;
    }
  }
}

TEST(CostModel, SparseCostsOrdering) {
  const CostModel c;
  // Hash probe+insert costs more than the plain indexed array add, which
  // costs more than a spill append.
  EXPECT_GT(c.hash_insert_cycles_per_pair, c.array_insert_cycles_per_pair);
  EXPECT_GT(c.array_insert_cycles_per_pair, c.spill_append_cycles_per_pair);
  EXPECT_EQ(c.sparse_insert_cycles(true, 128), 128u * 16);
}

// -------------------------------------------------------------- staggered -

class StaggerSweep
    : public ::testing::TestWithParam<std::tuple<u32, u32>> {};

TEST_P(StaggerSweep, PermutationAndSpreadProperties) {
  const auto [hosts, blocks] = GetParam();
  // Every host's schedule is a permutation.
  for (u32 h = 0; h < hosts; ++h) {
    const auto sched = send_schedule(h, hosts, blocks, SendOrder::kStaggered);
    std::unordered_set<u32> seen(sched.begin(), sched.end());
    EXPECT_EQ(seen.size(), blocks);
  }
  // Position spread of one block across hosts: with max stagger, the gap
  // between consecutive hosts' send positions of the SAME block is the
  // stride (delta_c control, Section 5).
  if (blocks >= hosts) {
    const u32 stride = (blocks + hosts - 1) / hosts;
    std::vector<u32> pos_of_block0(hosts);
    for (u32 h = 0; h < hosts; ++h) {
      const auto sched =
          send_schedule(h, hosts, blocks, SendOrder::kStaggered);
      for (u32 i = 0; i < blocks; ++i) {
        if (sched[i] == 0) pos_of_block0[h] = i;
      }
    }
    for (u32 h = 1; h < hosts; ++h) {
      const u32 gap = (pos_of_block0[h - 1] + blocks - pos_of_block0[h]) %
                      blocks;
      EXPECT_EQ(gap, stride % blocks) << "host " << h;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StaggerSweep,
    ::testing::Values(std::tuple{2u, 2u}, std::tuple{2u, 16u},
                      std::tuple{4u, 4u}, std::tuple{4u, 10u},
                      std::tuple{8u, 64u}, std::tuple{16u, 16u},
                      std::tuple{16u, 1024u}, std::tuple{7u, 13u}));

// ------------------------------------------------------------- reduce op --

constexpr OpKind kBuiltinOpKinds[] = {OpKind::kSum,  OpKind::kProd,
                                      OpKind::kMin,  OpKind::kMax,
                                      OpKind::kBand, OpKind::kBor,
                                      OpKind::kBxor};

// Naive scalar oracle for one element — deliberately written as the switch
// the production code used to be, so the kernel-table dispatch is checked
// against an independent restatement of the semantics.
template <typename T>
T ref_scalar(OpKind k, T a, T b) {
  switch (k) {
    case OpKind::kSum: return static_cast<T>(a + b);
    case OpKind::kProd: return static_cast<T>(a * b);
    case OpKind::kMin: return std::min(a, b);
    case OpKind::kMax: return std::max(a, b);
    case OpKind::kBand:
      if constexpr (std::is_integral_v<T>) return static_cast<T>(a & b);
      break;
    case OpKind::kBor:
      if constexpr (std::is_integral_v<T>) return static_cast<T>(a | b);
      break;
    case OpKind::kBxor:
      if constexpr (std::is_integral_v<T>) return static_cast<T>(a ^ b);
      break;
    case OpKind::kCustom: break;
  }
  return a;
}

void ref_apply(OpKind k, DType t, TypedBuffer& acc, const TypedBuffer& in) {
  auto loop = [&](auto* a, const auto* b) {
    for (std::size_t i = 0; i < acc.size(); ++i)
      a[i] = ref_scalar(k, a[i], b[i]);
  };
  switch (t) {
    case DType::kInt8:
      loop(reinterpret_cast<i8*>(acc.data()),
           reinterpret_cast<const i8*>(in.data()));
      break;
    case DType::kInt16:
      loop(reinterpret_cast<i16*>(acc.data()),
           reinterpret_cast<const i16*>(in.data()));
      break;
    case DType::kInt32:
      loop(reinterpret_cast<i32*>(acc.data()),
           reinterpret_cast<const i32*>(in.data()));
      break;
    case DType::kInt64:
      loop(reinterpret_cast<i64*>(acc.data()),
           reinterpret_cast<const i64*>(in.data()));
      break;
    case DType::kFloat32:
      loop(reinterpret_cast<f32*>(acc.data()),
           reinterpret_cast<const f32*>(in.data()));
      break;
    case DType::kFloat16: {
      auto* a = reinterpret_cast<u16*>(acc.data());
      const auto* b = reinterpret_cast<const u16*>(in.data());
      for (std::size_t i = 0; i < acc.size(); ++i) {
        a[i] = f32_to_f16(
            ref_scalar(k, f16_to_f32(a[i]), f16_to_f32(b[i])));
      }
      break;
    }
  }
}

// The builtin kernels run 64-byte chunks plus a scalar tail, so an i8
// chunk is 64 elements.  Every length from 0 to three such chunks plus five
// runs every chunk count and every tail length of every dtype, once on
// aligned buffers and once with both operands one byte off alignment
// (apply's bounce path, which works in 256-byte pieces: hence 1000 too).
TEST(ReduceOpProperty, ApplyMatchesScalarOracleForEveryOpDtypePair) {
  std::vector<std::size_t> lengths(3 * 64 + 6);
  std::iota(lengths.begin(), lengths.end(), std::size_t{0});
  lengths.push_back(1000);
  Rng rng(4242);
  for (const OpKind k : kBuiltinOpKinds) {
    const ReduceOp op(k);
    for (const DType t : kAllDTypes) {
      if (!op.supports(t)) continue;
      const std::size_t es = dtype_size(t);
      for (const std::size_t n : lengths) {
        TypedBuffer acc(t, n), in(t, n);
        acc.fill_random(rng);
        in.fill_random(rng);
        TypedBuffer ref = acc;
        ref_apply(k, t, ref, in);
        // One byte past an aligned vector's start: misaligned for es > 1.
        std::vector<std::byte> acc_off(n * es + 1), in_off(n * es + 1);
        if (n > 0) {
          std::memcpy(acc_off.data() + 1, acc.data(), n * es);
          std::memcpy(in_off.data() + 1, in.data(), n * es);
        }
        op.apply(t, acc_off.data() + 1, in_off.data() + 1, n);
        acc.accumulate(in, op);

        EXPECT_TRUE(acc.bitwise_equal(ref))
            << op_name(k) << "/" << dtype_name(t) << " n=" << n;
        EXPECT_TRUE(n == 0 || std::memcmp(acc_off.data() + 1, ref.data(),
                                          n * es) == 0)
            << op_name(k) << "/" << dtype_name(t) << " n=" << n
            << " misaligned";
      }
    }
  }
}

TEST(ReduceOpProperty, IdentityIsANoOpForEveryOpDtypePair) {
  Rng rng(777);
  for (const OpKind k : kBuiltinOpKinds) {
    const ReduceOp op(k);
    for (const DType t : kAllDTypes) {
      if (!op.supports(t)) continue;
      TypedBuffer in(t, 333);
      in.fill_random(rng);
      TypedBuffer acc(t, 333);
      acc.fill_identity(op);
      acc.accumulate(in, op);
      EXPECT_TRUE(acc.bitwise_equal(in))
          << op_name(k) << "/" << dtype_name(t);
    }
  }
}

// The identity-bug regression (ISSUE 8): float min/max identities must be
// the infinities, not FLT_MAX/-FLT_MAX, or ±inf inputs are silently
// clipped by the very first accumulate.
TEST(ReduceOpProperty, FloatMinMaxIdentitiesAreInfinite) {
  const ReduceOp vmin(OpKind::kMin), vmax(OpKind::kMax);
  f32 v = 0.0f;
  vmin.fill_identity(DType::kFloat32, &v, 1);
  EXPECT_TRUE(std::isinf(v) && v > 0) << v;
  vmax.fill_identity(DType::kFloat32, &v, 1);
  EXPECT_TRUE(std::isinf(v) && v < 0) << v;
  u16 h = 0;
  vmin.fill_identity(DType::kFloat16, &h, 1);
  EXPECT_EQ(h, 0x7C00) << "f16 +inf";
  vmax.fill_identity(DType::kFloat16, &h, 1);
  EXPECT_EQ(h, 0xFC00) << "f16 -inf";
  // Integer identities unchanged: the full range must survive.
  i32 iv = 0;
  vmin.fill_identity(DType::kInt32, &iv, 1);
  EXPECT_EQ(iv, std::numeric_limits<i32>::max());
  vmax.fill_identity(DType::kInt32, &iv, 1);
  EXPECT_EQ(iv, std::numeric_limits<i32>::min());

  // The user-visible symptom: a buffer containing +inf reduced with max
  // (or -inf with min) through the identity must keep the infinity.
  const f32 pinf = std::numeric_limits<f32>::infinity();
  f32 m = 0.0f;
  vmax.fill_identity(DType::kFloat32, &m, 1);
  vmax.apply(DType::kFloat32, &m, &pinf, 1);
  EXPECT_EQ(m, pinf);
  const f32 ninf = -pinf;
  vmin.fill_identity(DType::kFloat32, &m, 1);
  vmin.apply(DType::kFloat32, &m, &ninf, 1);
  EXPECT_EQ(m, ninf);
}

// ------------------------------------------------------------------ fp16 --

TEST(Float16Property, RandomRoundTripWithinHalfUlp) {
  Rng rng(2024);
  for (int i = 0; i < 20000; ++i) {
    const f32 v = static_cast<f32>(rng.uniform(-60000.0, 60000.0));
    const f32 back = f16_to_f32(f32_to_f16(v));
    // Round-to-nearest: error bounded by half the spacing at |v|.
    const f32 mag = std::abs(v);
    const f32 ulp = std::max(std::ldexp(1.0f, -24),
                             mag * std::ldexp(1.0f, -11));
    EXPECT_LE(std::abs(back - v), ulp) << v;
  }
}

TEST(Float16Property, ConversionIsIdempotent) {
  Rng rng(2025);
  for (int i = 0; i < 5000; ++i) {
    const u16 h = static_cast<u16>(rng.uniform_u64(0x10000));
    const f32 f = f16_to_f32(h);
    if (std::isnan(f)) continue;  // NaN payloads may canonicalize
    EXPECT_EQ(f32_to_f16(f), h);
  }
}

TEST(Float16Property, OrderPreserving) {
  Rng rng(2026);
  for (int i = 0; i < 5000; ++i) {
    const f32 a = static_cast<f32>(rng.uniform(-1000, 1000));
    const f32 b = static_cast<f32>(rng.uniform(-1000, 1000));
    const f32 ha = f16_to_f32(f32_to_f16(a));
    const f32 hb = f16_to_f32(f32_to_f16(b));
    if (a <= b) {
      EXPECT_LE(ha, hb);
    } else {
      EXPECT_GE(ha, hb);
    }
  }
}

}  // namespace
}  // namespace flare::core

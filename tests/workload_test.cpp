// Workload generators: determinism, density targets, overlap control,
// gradient-trace structure (bucket top-k, layer scales), arrival processes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_set>

#include "workload/arrivals.hpp"
#include "workload/generators.hpp"
#include "workload/gradient_trace.hpp"

namespace flare::workload {
namespace {

TEST(DenseGen, DeterministicPerSeedAndHost) {
  auto a = make_dense_data(3, 128, core::DType::kFloat32, 5);
  auto b = make_dense_data(3, 128, core::DType::kFloat32, 5);
  for (u32 h = 0; h < 3; ++h) EXPECT_TRUE(a[h].bitwise_equal(b[h]));
  auto c = make_dense_data(3, 128, core::DType::kFloat32, 6);
  EXPECT_FALSE(a[0].bitwise_equal(c[0]));
}

TEST(DenseGen, HostsDiffer) {
  auto d = make_dense_data(2, 256, core::DType::kInt32, 7);
  EXPECT_FALSE(d[0].bitwise_equal(d[1]));
}

// ----------------------------------------------- dense input rotation ---

/// Message shapes as (elements, block elements): full blocks, a short tail
/// block, one short block and one full block.
struct DenseShape {
  std::size_t elems;
  std::size_t block;
};
constexpr DenseShape kShapes[] = {{64, 16}, {40, 16}, {10, 16}, {16, 16}};
constexpr u32 kRotHosts = 5;

/// out[i] = base[(i + shift) mod n], element by element.
core::TypedBuffer rotated(const core::TypedBuffer& base, std::size_t shift) {
  core::TypedBuffer out(base.dtype(), base.size());
  const std::size_t esize = core::dtype_size(base.dtype());
  for (std::size_t i = 0; i < base.size(); ++i) {
    std::memcpy(out.at_byte(i), base.at_byte((i + shift) % base.size()),
                esize);
  }
  return out;
}

/// Iteration k's inputs, as the request sends them.
std::vector<core::TypedBuffer> inputs_at(const DenseInputs& in, u32 k) {
  std::vector<core::TypedBuffer> out;
  for (u32 h = 0; h < kRotHosts; ++h) {
    out.push_back(rotated(in.input(h), in.rotation(k)));
  }
  return out;
}

TEST(DenseInputs, RotatedInputsReduceToTheRotatedReference) {
  for (const core::DType dtype :
       {core::DType::kInt32, core::DType::kFloat32, core::DType::kFloat16}) {
    for (const core::OpKind kind :
         {core::OpKind::kSum, core::OpKind::kMax, core::OpKind::kProd}) {
      const core::ReduceOp op(kind);
      for (const DenseShape& shape : kShapes) {
        const DenseInputs in(kRotHosts, shape.elems, shape.block, dtype, 3,
                             op);
        for (u32 k = 0; k < 2 * shape.elems; ++k) {
          core::TypedBuffer got;
          core::reference_reduce_into(got, inputs_at(in, k), op);
          const core::TypedBuffer want =
              rotated(in.reference(), in.rotation(k));
          ASSERT_TRUE(got.bitwise_equal(want))
              << core::dtype_name(dtype) << " op " << static_cast<int>(kind)
              << " elems " << shape.elems << " iteration " << k;
        }
      }
    }
  }
}

TEST(DenseInputs, IterationZeroIsTheDrawAndEachIterationMoves) {
  const core::ReduceOp sum(core::OpKind::kSum);
  for (const DenseShape& shape : kShapes) {
    const DenseInputs in(kRotHosts, shape.elems, shape.block,
                         core::DType::kInt32, 9, sum);
    const auto drawn =
        make_dense_data(kRotHosts, shape.elems, core::DType::kInt32, 9);
    EXPECT_EQ(in.rotation(0), 0u);
    for (u32 h = 0; h < kRotHosts; ++h) {
      EXPECT_TRUE(in.input(h).bitwise_equal(drawn[h]));
    }
    for (u32 k = 1; k < 2 * shape.elems; ++k) {
      EXPECT_NE(in.rotation(k), in.rotation(k - 1)) << shape.elems;
      const auto prev = inputs_at(in, k - 1);
      const auto cur = inputs_at(in, k);
      bool moved = false;
      for (u32 h = 0; h < kRotHosts; ++h) {
        moved = moved || !cur[h].bitwise_equal(prev[h]);
      }
      EXPECT_TRUE(moved) << "elems " << shape.elems << " iteration " << k;
    }
  }
  // A one-element message has nothing to rotate.
  const DenseInputs one(kRotHosts, 1, 16, core::DType::kInt32, 9, sum);
  EXPECT_EQ(one.rotation(7), 0u);
}

TEST(DenseInputs, RotationRuleByShape) {
  const core::ReduceOp sum(core::OpKind::kSum);
  const auto rotations = [&](const DenseShape& shape) {
    const DenseInputs in(2, shape.elems, shape.block, core::DType::kInt32, 1,
                         sum);
    std::vector<std::size_t> out;
    for (u32 k = 0; k < 5; ++k) out.push_back(in.rotation(k));
    return out;
  };
  // Full blocks and a short tail move whole blocks; one block moves one
  // element per iteration.
  EXPECT_EQ(rotations({64, 16}), (std::vector<std::size_t>{0, 16, 32, 48, 0}));
  EXPECT_EQ(rotations({40, 16}), (std::vector<std::size_t>{0, 16, 32, 0, 16}));
  EXPECT_EQ(rotations({10, 16}), (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(rotations({16, 16}), (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(DenseInputs, RotatedSliceMatchesTheRotatedVector) {
  const core::ReduceOp sum(core::OpKind::kSum);
  for (const DenseShape& shape : kShapes) {
    const DenseInputs in(1, shape.elems, shape.block, core::DType::kFloat32,
                         4, sum);
    const core::TypedBuffer& base = in.input(0);
    const bool full_blocks =
        shape.elems % shape.block == 0 && shape.elems > shape.block;
    for (u32 k = 0; k < 2 * shape.elems; ++k) {
      const core::TypedBuffer whole = rotated(base, in.rotation(k));
      for (std::size_t first = 0; first < shape.elems; first += shape.block) {
        const std::size_t n = std::min(shape.block, shape.elems - first);
        core::TypedBuffer bounce;
        const std::byte* got =
            rotated_slice(base, in.rotation(k), first, n, bounce);
        EXPECT_EQ(std::memcmp(got, whole.at_byte(first), n * sizeof(f32)), 0);
        // Full blocks rotate onto whole base blocks: never a copy.
        if (full_blocks) {
          EXPECT_EQ(bounce.size(), 0u);
        }
      }
    }
  }
}

TEST(SparseGen, DensityTargetIsHonoured) {
  SparseSpec spec{10000, 0.10, 0.0, core::DType::kFloat32, 11};
  f64 total = 0;
  const int blocks = 20;
  for (int b = 0; b < blocks; ++b)
    total += static_cast<f64>(sparse_block_indices(spec, 0, static_cast<u32>(b)).size());
  const f64 mean_density = total / blocks / spec.span;
  EXPECT_NEAR(mean_density, 0.10, 0.02);
}

TEST(SparseGen, IndicesSortedUniqueInSpan) {
  SparseSpec spec{640, 0.2, 0.3, core::DType::kFloat32, 13};
  for (u32 h = 0; h < 4; ++h) {
    const auto idx = sparse_block_indices(spec, h, 0);
    for (std::size_t i = 1; i < idx.size(); ++i)
      EXPECT_LT(idx[i - 1], idx[i]);
    for (const u32 i : idx) EXPECT_LT(i, spec.span);
  }
}

TEST(SparseGen, OverlapControlsUnionSize) {
  // With full overlap every host picks the same shared pool: union ~ nnz.
  // With none, union ~ P * nnz (minus collisions).
  SparseSpec lo{2000, 0.05, 0.0, core::DType::kFloat32, 17};
  SparseSpec hi{2000, 0.05, 1.0, core::DType::kFloat32, 17};
  const std::size_t u_lo = union_index_count(lo, 8, 0);
  const std::size_t u_hi = union_index_count(hi, 8, 0);
  EXPECT_GT(u_lo, 3 * u_hi);
}

TEST(SparseGen, PairsMatchIndices) {
  SparseSpec spec{640, 0.1, 0.5, core::DType::kFloat32, 19};
  const auto idx = sparse_block_indices(spec, 2, 3);
  const auto pairs = sparse_block_pairs(spec, 2, 3);
  ASSERT_EQ(idx.size(), pairs.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    EXPECT_EQ(pairs[i].index, idx[i]);
    EXPECT_NE(pairs[i].value, 0.0);
  }
}

TEST(SparseGen, DensifyPlacesValues) {
  SparseSpec spec{100, 0.1, 0.0, core::DType::kFloat32, 23};
  std::vector<core::SparsePair> pairs = {{3, 1.5}, {97, -2.0}};
  const core::TypedBuffer buf = densify(spec, pairs);
  EXPECT_DOUBLE_EQ(buf.get_as_f64(3), 1.5);
  EXPECT_DOUBLE_EQ(buf.get_as_f64(97), -2.0);
  EXPECT_DOUBLE_EQ(buf.get_as_f64(0), 0.0);
}

/// FNV-1a over 64-bit words: a compact fingerprint for the pins below.
struct Fnv {
  u64 h = 0xcbf29ce484222325ull;
  void add(u64 v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  }
};

TEST(SparseGen, IndicesAndPairsArePinnedBitForBit) {
  // Every index and every value bit for two hosts x two blocks, over spans
  // on and off a 64-bit word boundary, sparse and full density, and no,
  // half and full overlap.  Staging, the references and every sparse
  // digest downstream read these; a drawing change must show here first.
  // Per parameter set: the index count summed over the four (host, block)
  // draws, Fnv over every index in order, Fnv over every (index, value
  // bits) pair, and union_index_count over both hosts in block 0.
  struct Pin {
    u32 span;
    f64 density;
    f64 overlap;
    std::size_t nnz;
    u64 indices;
    u64 pairs;
    std::size_t union0;
  };
  const Pin pins[] = {
      {1024, 0.1, 0.0, 432, 0xdb6f4d5b68077ee6, 0x80f4491079dbd1e8, 207},
      {1024, 0.1, 0.5, 432, 0x2e7b2f5b1c7483a4, 0x7ad620883fc16ffe, 159},
      {1024, 0.1, 1.0, 432, 0x5eed6dac409b907e, 0x1208139e68114908, 111},
      {1024, 1.0, 0.0, 4096, 0xca373d9d5fd06f25, 0xafc270028f2a1973, 1024},
      {1024, 1.0, 0.5, 4096, 0xca373d9d5fd06f25, 0xafc270028f2a1973, 1024},
      {1024, 1.0, 1.0, 4096, 0xca373d9d5fd06f25, 0xafc270028f2a1973, 1024},
      {1000, 0.1, 0.0, 422, 0x609b7c8c19938f83, 0x746a46c19d60c737, 205},
      {1000, 0.1, 0.5, 422, 0x6c31f7d573582c1e, 0x2a441ebb0d012316, 158},
      {1000, 0.1, 1.0, 422, 0x757f5499e2c8f7e6, 0x29475331eaf7dd1a, 109},
      {1000, 1.0, 0.0, 4000, 0xeac50e39bca8f965, 0x3ea7cdc8f596af0b, 1000},
      {1000, 1.0, 0.5, 4000, 0xeac50e39bca8f965, 0x3ea7cdc8f596af0b, 1000},
      {1000, 1.0, 1.0, 4000, 0xeac50e39bca8f965, 0x3ea7cdc8f596af0b, 1000},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::to_string(pin.span) + " " +
                 std::to_string(pin.density) + " " +
                 std::to_string(pin.overlap));
    const SparseSpec spec{pin.span, pin.density, pin.overlap,
                          core::DType::kFloat32, 29};
    std::size_t nnz = 0;
    Fnv indices;
    Fnv pairs;
    for (u32 host = 0; host < 2; ++host) {
      for (u32 block = 0; block < 2; ++block) {
        const std::vector<u32> idx = sparse_block_indices(spec, host, block);
        nnz += idx.size();
        for (const u32 i : idx) indices.add(i);
        for (const core::SparsePair& p :
             sparse_block_pairs(spec, host, block)) {
          pairs.add(p.index);
          pairs.add(std::bit_cast<u64>(p.value));
        }
      }
    }
    const std::size_t union0 = union_index_count(spec, 2, 0);
    EXPECT_EQ(nnz, pin.nnz);
    EXPECT_EQ(indices.h, pin.indices);
    EXPECT_EQ(pairs.h, pin.pairs);
    EXPECT_EQ(union0, pin.union0);
  }
}

TEST(GradientTrace, DensityMatchesBucketTopK) {
  GradientTraceSpec spec;
  spec.model_elems = 512 * 1000;
  spec.bucket = 512;
  spec.top_k = 1;
  GradientTrace trace(spec, 4);
  EXPECT_NEAR(trace.density(), 1.0 / 512.0, 1e-12);
  EXPECT_EQ(trace.buckets(), 1000u);
}

TEST(GradientTrace, ExactlyTopKPerBucket) {
  GradientTraceSpec spec;
  spec.model_elems = 512 * 64;
  GradientTrace trace(spec, 2);
  const auto pairs = trace.window_pairs(0, 0, 64);
  EXPECT_EQ(pairs.size(), 64u);  // one pair per bucket
  // Every pair lands in its own bucket.
  std::unordered_set<u64> buckets;
  for (const auto& p : pairs) buckets.insert(p.index / spec.bucket);
  EXPECT_EQ(buckets.size(), 64u);
}

TEST(GradientTrace, OverlapShrinksUnion) {
  GradientTraceSpec hi;
  hi.model_elems = 512 * 128;
  hi.overlap = 0.95;
  GradientTraceSpec lo = hi;
  lo.overlap = 0.0;
  GradientTrace t_hi(hi, 16), t_lo(lo, 16);
  EXPECT_LT(t_hi.window_union(0, 128), t_lo.window_union(0, 128) / 2);
}

TEST(GradientTrace, WindowIndicesRelativeAndBounded) {
  GradientTraceSpec spec;
  spec.model_elems = 512 * 256;
  GradientTrace trace(spec, 2);
  const auto pairs = trace.window_pairs(1, 100, 10);
  for (const auto& p : pairs) EXPECT_LT(p.index, 10u * spec.bucket);
  EXPECT_EQ(pairs.size(), 10u);
}

TEST(GradientTrace, Deterministic) {
  GradientTraceSpec spec;
  spec.model_elems = 512 * 32;
  GradientTrace a(spec, 4), b(spec, 4);
  const auto pa = a.window_pairs(2, 0, 32);
  const auto pb = b.window_pairs(2, 0, 32);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].index, pb[i].index);
    EXPECT_EQ(pa[i].value, pb[i].value);
  }
}

TEST(Arrivals, DeterministicIsConstant) {
  ArrivalProcess ap(ArrivalKind::kDeterministic, 42.0, 1);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(ap.next_gap(), 42.0);
}

TEST(Arrivals, ExponentialMeanConverges) {
  ArrivalProcess ap(ArrivalKind::kExponential, 100.0, 2);
  f64 sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += ap.next_gap();
  EXPECT_NEAR(sum / n, 100.0, 3.0);
}

}  // namespace
}  // namespace flare::workload

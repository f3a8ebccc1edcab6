// Wall-clock microbenchmarks (google-benchmark) of the hot aggregation
// kernels: element-wise reduction per dtype/operator, the gradient fill
// (exact integer path and floating-point path), fp16 conversion,
// sparse hash/array store inserts and scans, packet encode, and the tree
// shape construction.  These measure THIS implementation on the build
// machine — they complement the simulated switch numbers rather than
// standing in for them.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "core/dense_policies.hpp"
#include "core/packet.hpp"
#include "core/reduce_op.hpp"
#include "core/sparse_store.hpp"
#include "core/typed_buffer.hpp"
#include "workload/generators.hpp"

namespace {

using namespace flare;
using core::DType;
using core::OpKind;

void BM_ReduceApply(benchmark::State& state, DType dtype, OpKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::ReduceOp op(kind);
  if (!op.supports(dtype)) {
    state.SkipWithError("unsupported dtype");
    return;
  }
  Rng rng(1);
  core::TypedBuffer acc(dtype, n), in(dtype, n);
  acc.fill_random(rng);
  in.fill_random(rng);
  for (auto _ : state) {
    op.apply(dtype, acc.data(), in.data(), n);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(acc.size_bytes()));
}

#define FLARE_BENCH_APPLY(name, dtype, op)                        \
  void name(benchmark::State& s) { BM_ReduceApply(s, dtype, op); } \
  BENCHMARK(name)->Arg(256)->Arg(4096)

FLARE_BENCH_APPLY(BM_SumF32, DType::kFloat32, OpKind::kSum);
FLARE_BENCH_APPLY(BM_SumF16, DType::kFloat16, OpKind::kSum);
FLARE_BENCH_APPLY(BM_SumI8, DType::kInt8, OpKind::kSum);
FLARE_BENCH_APPLY(BM_SumI16, DType::kInt16, OpKind::kSum);
FLARE_BENCH_APPLY(BM_SumI32, DType::kInt32, OpKind::kSum);
FLARE_BENCH_APPLY(BM_SumI64, DType::kInt64, OpKind::kSum);
FLARE_BENCH_APPLY(BM_MaxF32, DType::kFloat32, OpKind::kMax);
FLARE_BENCH_APPLY(BM_ProdI32, DType::kInt32, OpKind::kProd);
FLARE_BENCH_APPLY(BM_BxorI32, DType::kInt32, OpKind::kBxor);

void BM_Fill(benchmark::State& state, DType dtype) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  core::TypedBuffer buf(dtype, n);
  for (auto _ : state) {
    buf.fill_random(rng);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(buf.size_bytes()));
}

// Default range (-8, 8): int32 takes the exact integer path, f32 the
// floating-point one.
void BM_FillInt32(benchmark::State& s) { BM_Fill(s, DType::kInt32); }
BENCHMARK(BM_FillInt32)->Arg(4096);
void BM_FillF32(benchmark::State& s) { BM_Fill(s, DType::kFloat32); }
BENCHMARK(BM_FillF32)->Arg(4096);

void BM_CustomOp(benchmark::State& state) {
  auto op = core::ReduceOp::custom_binary(
      "clamped",
      [](auto a, auto b) {
        const f64 s = static_cast<f64>(a) + static_cast<f64>(b);
        return s < 100.0 ? s : 100.0;
      },
      0.0);
  const std::size_t n = 256;
  core::TypedBuffer acc(DType::kFloat32, n), in(DType::kFloat32, n);
  Rng rng(2);
  acc.fill_random(rng);
  in.fill_random(rng);
  for (auto _ : state) {
    op.apply(DType::kFloat32, acc.data(), in.data(), n);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_CustomOp);

void BM_F16Conversion(benchmark::State& state) {
  Rng rng(3);
  std::vector<f32> vals(1024);
  for (auto& v : vals) v = static_cast<f32>(rng.uniform(-100, 100));
  for (auto _ : state) {
    u32 sink = 0;
    for (const f32 v : vals) sink += core::f32_to_f16(v);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 1024);
}
BENCHMARK(BM_F16Conversion);

void BM_HashStoreInsert(benchmark::State& state) {
  const auto capacity = static_cast<u32>(state.range(0));
  core::ReduceOp sum(OpKind::kSum);
  Rng rng(4);
  std::vector<u32> indices(1024);
  for (auto& i : indices) i = static_cast<u32>(rng.uniform_u64(100000));
  const f32 v = 1.5f;
  std::byte raw[4];
  std::memcpy(raw, &v, 4);
  for (auto _ : state) {
    core::HashStore store(capacity, DType::kFloat32, sum);
    u64 spilled = 0;
    for (const u32 idx : indices) {
      if (!store.insert(idx, raw)) ++spilled;
    }
    benchmark::DoNotOptimize(spilled);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 1024);
}
BENCHMARK(BM_HashStoreInsert)->Arg(256)->Arg(2048);

void BM_ArrayStoreInsert(benchmark::State& state) {
  core::ReduceOp sum(OpKind::kSum);
  Rng rng(5);
  std::vector<u32> indices(1024);
  for (auto& i : indices) i = static_cast<u32>(rng.uniform_u64(16384));
  const f32 v = 1.5f;
  std::byte raw[4];
  std::memcpy(raw, &v, 4);
  for (auto _ : state) {
    core::ArrayStore store(16384, DType::kFloat32, sum);
    for (const u32 idx : indices) store.insert(idx, raw);
    benchmark::DoNotOptimize(store.stored_pairs());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 1024);
}
BENCHMARK(BM_ArrayStoreInsert);

void BM_StoreExtract(benchmark::State& state) {
  const bool hash = state.range(0) != 0;
  core::ReduceOp sum(OpKind::kSum);
  Rng rng(6);
  std::unique_ptr<core::SparseStore> store;
  if (hash) {
    store = std::make_unique<core::HashStore>(2048, DType::kFloat32, sum);
  } else {
    store = std::make_unique<core::ArrayStore>(16384, DType::kFloat32, sum);
  }
  const f32 v = 2.0f;
  std::byte raw[4];
  std::memcpy(raw, &v, 4);
  for (int i = 0; i < 1024; ++i) {
    store->insert(static_cast<u32>(rng.uniform_u64(16384)), raw);
  }
  for (auto _ : state) {
    std::vector<core::StoredPair> out;
    store->extract(out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_StoreExtract)->Arg(1)->Arg(0);

void BM_SparsePacketEncode(benchmark::State& state) {
  workload::SparseSpec spec{1280, 0.1, 0.5, DType::kFloat32, 7};
  const auto pairs = workload::sparse_block_pairs(spec, 0, 0);
  for (auto _ : state) {
    core::Packet p =
        core::make_sparse_packet(1, 0, 0, pairs, DType::kFloat32);
    benchmark::DoNotOptimize(p.payload.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(pairs.size()));
}
BENCHMARK(BM_SparsePacketEncode);

void BM_TreeShapeBuild(benchmark::State& state) {
  const auto p = static_cast<u32>(state.range(0));
  for (auto _ : state) {
    auto shape = core::TreeAggregator::build_shape(p);
    benchmark::DoNotOptimize(shape.nodes.data());
  }
}
BENCHMARK(BM_TreeShapeBuild)->Arg(16)->Arg(64)->Arg(512);

}  // namespace

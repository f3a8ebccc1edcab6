// HashStore (single-probe + spill) and ArrayStore behaviour: insert/combine
// semantics, collision spilling, extraction order, footprints — plus a
// parameterized load-sweep property suite, and a (dtype, op) property
// suite that checks both stores against per-element ReduceOp::apply models.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <map>

#include "common/rng.hpp"
#include "core/packet.hpp"
#include "core/sparse_store.hpp"
#include "core/typed_buffer.hpp"

namespace flare::core {
namespace {

ReduceOp sum(OpKind::kSum);

void insert_f32(SparseStore& store, u32 index, f32 value,
                std::vector<StoredPair>* spill = nullptr) {
  std::byte raw[4];
  std::memcpy(raw, &value, 4);
  if (!store.insert(index, raw)) {
    ASSERT_NE(spill, nullptr) << "unexpected collision";
    spill->push_back(make_stored_pair(index, raw, DType::kFloat32));
  }
}

f32 pair_value(const StoredPair& p) {
  f32 v;
  std::memcpy(&v, p.value.data(), 4);
  return v;
}

TEST(ArrayStore, InsertAndExtractSorted) {
  ArrayStore store(100, DType::kFloat32, sum);
  insert_f32(store, 42, 1.0f);
  insert_f32(store, 7, 2.0f);
  insert_f32(store, 99, 3.0f);
  EXPECT_EQ(store.stored_pairs(), 3u);
  std::vector<StoredPair> out;
  store.extract(out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].index, 7u);   // ascending order
  EXPECT_EQ(out[1].index, 42u);
  EXPECT_EQ(out[2].index, 99u);
  EXPECT_EQ(pair_value(out[0]), 2.0f);
}

TEST(ArrayStore, CombinesOnIndexMatch) {
  ArrayStore store(10, DType::kFloat32, sum);
  insert_f32(store, 3, 1.5f);
  insert_f32(store, 3, 2.5f);
  EXPECT_EQ(store.stored_pairs(), 1u);
  std::vector<StoredPair> out;
  store.extract(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(pair_value(out[0]), 4.0f);
}

TEST(ArrayStore, ZeroValueIsStillStored) {
  // Sparse semantics: transmitted zero-valued pairs are data (sum identity
  // marks absence via the occupancy bitmap, not the value).
  ArrayStore store(10, DType::kFloat32, sum);
  insert_f32(store, 5, 0.0f);
  EXPECT_EQ(store.stored_pairs(), 1u);
}

TEST(ArrayStore, FootprintScalesWithSpan) {
  ArrayStore small(128, DType::kFloat32, sum);
  ArrayStore big(1280, DType::kFloat32, sum);
  EXPECT_GT(big.footprint_bytes(), 9 * small.footprint_bytes());
  EXPECT_EQ(small.scan_slots(), 128u);
}

TEST(ArrayStoreDeath, OutOfSpanIndexAborts) {
  ArrayStore store(10, DType::kFloat32, sum);
  std::byte raw[4] = {};
  EXPECT_DEATH(store.insert(10, raw),
               "outside block span");
}

TEST(HashStore, InsertAndCombine) {
  HashStore store(64, DType::kFloat32, sum);
  insert_f32(store, 1, 5.0f);
  insert_f32(store, 1, 7.0f);
  EXPECT_EQ(store.stored_pairs(), 1u);
  std::vector<StoredPair> out;
  store.extract(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].index, 1u);
  EXPECT_EQ(pair_value(out[0]), 12.0f);
}

TEST(HashStore, CapacityRoundsToPowerOfTwo) {
  HashStore store(100, DType::kFloat32, sum);
  EXPECT_EQ(store.capacity(), 128u);
}

TEST(HashStore, CollisionGoesToSpill) {
  // Fill a tiny table until a collision must occur (pigeonhole): 5 distinct
  // indices into 4 slots.
  HashStore store(4, DType::kFloat32, sum);
  std::vector<StoredPair> spill;
  for (u32 i = 0; i < 5; ++i) insert_f32(store, i * 13 + 1, 1.0f, &spill);
  EXPECT_EQ(store.stored_pairs() + spill.size(), 5u);
  EXPECT_GE(spill.size(), 1u);
  EXPECT_EQ(store.collisions(), spill.size());
}

TEST(HashStore, NoFalseCombines) {
  // Distinct indices must never be merged even when they collide.
  HashStore store(8, DType::kFloat32, sum);
  std::vector<StoredPair> spill;
  std::map<u32, f32> truth;
  Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    const u32 idx = static_cast<u32>(rng.uniform_u64(1000));
    const f32 v = static_cast<f32>(rng.uniform(-4, 4));
    truth[idx] += v;
    insert_f32(store, idx, v, &spill);
  }
  // Reconstruct: stored + spilled pairs must sum to the truth.
  std::map<u32, f64> got;
  std::vector<StoredPair> out;
  store.extract(out);
  for (const auto& p : out) got[p.index] += static_cast<f64>(pair_value(p));
  for (const auto& p : spill) got[p.index] += static_cast<f64>(pair_value(p));
  for (const auto& [idx, v] : truth) {
    ASSERT_TRUE(got.contains(idx)) << idx;
    EXPECT_NEAR(got[idx], static_cast<f64>(v), 1e-3) << idx;
  }
  EXPECT_EQ(got.size(), truth.size());
}

TEST(HashStore, FootprintIndependentOfContent) {
  HashStore a(256, DType::kFloat32, sum);
  const u64 before = a.footprint_bytes();
  insert_f32(a, 10, 1.0f);
  EXPECT_EQ(a.footprint_bytes(), before);
}

struct LoadSweepParam {
  u32 capacity;
  u32 inserts;
};

class HashLoadSweep : public ::testing::TestWithParam<LoadSweepParam> {};

TEST_P(HashLoadSweep, ConservationUnderLoad) {
  // Property: stored + spilled == inserted distinct contributions, for any
  // load factor; spill fraction grows monotonically-ish with load.
  const auto [capacity, inserts] = GetParam();
  HashStore store(capacity, DType::kFloat32, sum);
  std::vector<StoredPair> spill;
  Rng rng(derive_seed(99, capacity * 131 + inserts));
  f64 total_in = 0.0;
  for (u32 i = 0; i < inserts; ++i) {
    const u32 idx = static_cast<u32>(rng.uniform_u64(inserts * 4));
    const f32 v = 1.0f;
    total_in += 1.0;
    insert_f32(store, idx, v, &spill);
  }
  std::vector<StoredPair> out;
  store.extract(out);
  f64 total_out = 0.0;
  for (const auto& p : out) total_out += static_cast<f64>(pair_value(p));
  for (const auto& p : spill) total_out += static_cast<f64>(pair_value(p));
  EXPECT_NEAR(total_out, total_in, 1e-6);
  EXPECT_LE(store.stored_pairs(), store.capacity());
}

INSTANTIATE_TEST_SUITE_P(
    Loads, HashLoadSweep,
    ::testing::Values(LoadSweepParam{16, 8}, LoadSweepParam{16, 16},
                      LoadSweepParam{16, 64}, LoadSweepParam{64, 256},
                      LoadSweepParam{256, 64}, LoadSweepParam{256, 1024},
                      LoadSweepParam{1024, 4096}));

class StoreDtypeSweep : public ::testing::TestWithParam<DType> {};

TEST_P(StoreDtypeSweep, ArrayStoreAllTypes) {
  const DType t = GetParam();
  ReduceOp op(OpKind::kSum);
  ArrayStore store(32, t, op);
  // Two inserts on the same index combine with dtype arithmetic.
  std::byte raw[8] = {};
  TypedBuffer staging(t, 1);
  staging.set_from_f64(0, 3.0);
  std::memcpy(raw, staging.data(), dtype_size(t));
  EXPECT_TRUE(store.insert(9, raw));
  staging.set_from_f64(0, 4.0);
  std::memcpy(raw, staging.data(), dtype_size(t));
  EXPECT_TRUE(store.insert(9, raw));
  std::vector<StoredPair> out;
  store.extract(out);
  ASSERT_EQ(out.size(), 1u);
  TypedBuffer check(t, 1);
  std::memcpy(check.data(), out[0].value.data(), dtype_size(t));
  EXPECT_DOUBLE_EQ(check.get_as_f64(0), 7.0);
}

// ---------------------------------------------------------------------------
// Property: the stores' resolved one-element combine against models that
// combine with ReduceOp::apply(t, acc, in, 1) on aligned copies.
// ---------------------------------------------------------------------------

using Cell = std::array<std::byte, 8>;

/// A model cell that apply combines in place, aligned for every dtype.
struct AlignedCell {
  alignas(8) Cell bytes{};
};

/// ArrayStore's contract: one cell per index, extracted in ascending order.
class ArrayModel {
 public:
  ArrayModel(DType t, const ReduceOp& op) : t_(t), op_(op) {}

  void insert(u32 index, const std::byte* value) {
    AlignedCell in;
    std::memcpy(in.bytes.data(), value, dtype_size(t_));
    const auto [it, fresh] = cells_.try_emplace(index, in);
    if (!fresh) op_.apply(t_, it->second.bytes.data(), in.bytes.data(), 1);
  }

  std::vector<StoredPair> extract() const {
    std::vector<StoredPair> out;
    for (const auto& [index, cell] : cells_) {
      out.push_back({index, cell.bytes});
    }
    return out;
  }

 private:
  DType t_;
  const ReduceOp& op_;
  std::map<u32, AlignedCell> cells_;
};

/// HashStore's contract, restated slot by slot: the bucket of `index` is
/// kWays slots picked by the Fibonacci hash; a match in the bucket
/// combines, else the first free slot takes the pair, else it collides.
/// Extraction walks the slots in order.
class HashModel {
 public:
  HashModel(u64 capacity, DType t, const ReduceOp& op)
      : slots_(capacity), t_(t), op_(op) {}

  bool insert(u32 index, const std::byte* value) {
    AlignedCell in;
    std::memcpy(in.bytes.data(), value, dtype_size(t_));
    const u64 buckets = slots_.size() / HashStore::kWays;
    const u64 h = static_cast<u64>(index) * 0x9E3779B97F4A7C15ull;
    const u64 base = ((h >> 32) & (buckets - 1)) * HashStore::kWays;
    Slot* free_slot = nullptr;
    for (u32 w = 0; w < HashStore::kWays; ++w) {
      Slot& s = slots_[base + w];
      if (s.occupied && s.index == index) {
        op_.apply(t_, s.value.bytes.data(), in.bytes.data(), 1);
        return true;
      }
      if (!s.occupied && free_slot == nullptr) free_slot = &s;
    }
    if (free_slot == nullptr) return false;
    *free_slot = Slot{true, index, in};
    return true;
  }

  std::vector<StoredPair> extract() const {
    std::vector<StoredPair> out;
    for (const Slot& s : slots_) {
      if (s.occupied) out.push_back({s.index, s.value.bytes});
    }
    return out;
  }

 private:
  struct Slot {
    bool occupied = false;
    u32 index = 0;
    AlignedCell value;
  };
  std::vector<Slot> slots_;
  DType t_;
  const ReduceOp& op_;
};

/// Bytes of `out` and `want` agree pair by pair, in order, on the index and
/// the dtype's value bytes.
void expect_same_pairs(const std::vector<StoredPair>& out,
                       const std::vector<StoredPair>& want, DType t) {
  ASSERT_EQ(out.size(), want.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].index, want[i].index) << "pair " << i;
    EXPECT_EQ(std::memcmp(out[i].value.data(), want[i].value.data(),
                          dtype_size(t)),
              0)
        << "pair " << i << " index " << out[i].index;
  }
}

/// Every builtin operator plus a non-commutative custom one (acc - in), so
/// that a swapped operand order would show.
std::vector<ReduceOp> property_ops() {
  std::vector<ReduceOp> ops;
  for (const OpKind k : {OpKind::kSum, OpKind::kProd, OpKind::kMin,
                         OpKind::kMax, OpKind::kBand, OpKind::kBor,
                         OpKind::kBxor}) {
    ops.emplace_back(k);
  }
  ops.push_back(ReduceOp::custom_binary(
      "sub", [](auto a, auto b) { return a - b; }, 0.0,
      /*commutative=*/false));
  return ops;
}

constexpr u32 kPropertySpan = 48;
constexpr u32 kPropertyHashCapacity = 16;  // collisions happen

/// Calls f(index, value) for the pairs of five sparse packets drawn from
/// `seed`, the values packed as the packet carries them.  Odd pair counts:
/// an i64 packet's values start 4 bytes past an 8-byte boundary.  Every
/// other packet is fed from a copy one byte off, so that every multi-byte
/// dtype (f16 included) arrives misaligned.
template <typename F>
void feed_packets(DType t, u64 seed, F&& f) {
  Rng rng(derive_seed(seed, static_cast<u64>(t)));
  for (const u32 count : {7u, 9u, 11u, 13u, 15u}) {
    std::vector<SparsePair> pairs(count);
    for (SparsePair& p : pairs) {
      p.index = static_cast<u32>(rng.uniform_u64(kPropertySpan));
      p.value = dtype_is_float(t) ? rng.uniform(-4.0, 4.0)
                                  : static_cast<f64>(rng.uniform_u64(7)) - 3;
    }
    const Packet pkt = make_sparse_packet(1, 0, 0, pairs, t);
    std::vector<std::byte> shifted(pkt.payload.size() + 1);
    std::memcpy(shifted.data() + 1, pkt.payload.data(), pkt.payload.size());
    const bool shift = count % 4 == 1;
    const std::byte* values =
        (shift ? shifted.data() + 1 : pkt.payload.data()) +
        std::size_t{count} * sizeof(u32);
    if (t == DType::kInt64 && !shift) {
      EXPECT_NE(reinterpret_cast<std::uintptr_t>(values) % 8, 0u);
    }
    if (shift && dtype_size(t) > 1) {
      EXPECT_NE(reinterpret_cast<std::uintptr_t>(values) % dtype_size(t), 0u);
    }
    const SparseView view = sparse_view(pkt, t);
    for (u32 i = 0; i < count; ++i) {
      f(view.indices[i], values + std::size_t{i} * dtype_size(t));
    }
  }
}

class StoreCombineProperty : public ::testing::TestWithParam<DType> {};

TEST_P(StoreCombineProperty, MatchesPerElementApplyBitForBit) {
  const DType t = GetParam();
  for (const ReduceOp& op : property_ops()) {
    if (!op.supports(t)) continue;
    SCOPED_TRACE(op.name());
    ArrayStore array(kPropertySpan, t, op);
    HashStore hash(kPropertyHashCapacity, t, op);
    ArrayModel array_model(t, op);
    HashModel hash_model(hash.capacity(), t, op);
    u64 collisions = 0;
    feed_packets(t, 17, [&](u32 index, const std::byte* v) {
      EXPECT_TRUE(array.insert(index, v));
      array_model.insert(index, v);
      const bool stored = hash.insert(index, v);
      EXPECT_EQ(stored, hash_model.insert(index, v)) << "index " << index;
      if (!stored) collisions += 1;
    });
    EXPECT_GT(collisions, 0u);
    EXPECT_EQ(hash.collisions(), collisions);

    std::vector<StoredPair> out;
    array.extract(out);
    expect_same_pairs(out, array_model.extract(), t);
    EXPECT_EQ(out.size(), array.stored_pairs());
    for (std::size_t i = 1; i < out.size(); ++i) {
      EXPECT_LT(out[i - 1].index, out[i].index);  // ascending index
    }
    // extract appends after what `out` already holds.
    const std::size_t array_pairs = out.size();
    hash.extract(out);
    const std::vector<StoredPair> hash_out(
        out.begin() + static_cast<std::ptrdiff_t>(array_pairs), out.end());
    expect_same_pairs(hash_out, hash_model.extract(), t);
    EXPECT_EQ(hash_out.size(), hash.stored_pairs());
  }
}

TEST_P(StoreCombineProperty, ClearedStoreBehavesLikeFresh) {
  const DType t = GetParam();
  for (const ReduceOp& op : property_ops()) {
    if (!op.supports(t)) continue;
    SCOPED_TRACE(op.name());
    ArrayStore used_array(kPropertySpan, t, op);
    HashStore used_hash(kPropertyHashCapacity, t, op);
    feed_packets(t, 17, [&](u32 index, const std::byte* v) {
      used_array.insert(index, v);
      used_hash.insert(index, v);
    });
    used_array.clear();
    used_hash.clear();
    EXPECT_EQ(used_array.stored_pairs(), 0u);
    EXPECT_EQ(used_hash.stored_pairs(), 0u);
    EXPECT_EQ(used_hash.collisions(), 0u);

    ArrayStore fresh_array(kPropertySpan, t, op);
    HashStore fresh_hash(kPropertyHashCapacity, t, op);
    feed_packets(t, 29, [&](u32 index, const std::byte* v) {
      EXPECT_EQ(used_array.insert(index, v), fresh_array.insert(index, v));
      EXPECT_EQ(used_hash.insert(index, v), fresh_hash.insert(index, v))
          << "index " << index;
    });
    EXPECT_EQ(used_hash.collisions(), fresh_hash.collisions());
    for (const auto& [used, fresh] :
         {std::pair<SparseStore*, SparseStore*>{&used_array, &fresh_array},
          {&used_hash, &fresh_hash}}) {
      EXPECT_EQ(used->stored_pairs(), fresh->stored_pairs());
      std::vector<StoredPair> used_out;
      std::vector<StoredPair> fresh_out;
      used->extract(used_out);
      fresh->extract(fresh_out);
      expect_same_pairs(used_out, fresh_out, t);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, StoreCombineProperty,
                         ::testing::Values(DType::kInt8, DType::kInt16,
                                           DType::kInt32, DType::kInt64,
                                           DType::kFloat16,
                                           DType::kFloat32));

INSTANTIATE_TEST_SUITE_P(AllTypes, StoreDtypeSweep,
                         ::testing::Values(DType::kInt8, DType::kInt16,
                                           DType::kInt32, DType::kInt64,
                                           DType::kFloat16,
                                           DType::kFloat32));

}  // namespace
}  // namespace flare::core

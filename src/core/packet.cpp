#include "core/packet.hpp"

namespace flare::core {

Packet make_dense_packet(u32 allreduce_id, u32 block_id, u16 child_index,
                         const void* data, u32 elems, DType dtype) {
  Packet p;
  p.hdr.allreduce_id = allreduce_id;
  p.hdr.block_id = block_id;
  p.hdr.child_index = child_index;
  p.hdr.elem_count = elems;
  p.hdr.shard_count = 1;
  p.hdr.flags = kFlagLastShard;  // dense blocks are always one packet
  const u64 bytes = static_cast<u64>(elems) * dtype_size(dtype);
  p.payload.resize(bytes);
  if (bytes > 0) std::memcpy(p.payload.data(), data, bytes);
  return p;
}

Packet make_sparse_packet(u32 allreduce_id, u32 block_id, u16 child_index,
                          std::span<const SparsePair> pairs, DType dtype,
                          u16 extra_flags) {
  Packet p;
  p.hdr.allreduce_id = allreduce_id;
  p.hdr.block_id = block_id;
  p.hdr.child_index = child_index;
  p.hdr.flags = static_cast<u16>(kFlagSparse | extra_flags);
  p.hdr.elem_count = static_cast<u32>(pairs.size());
  const u32 es = dtype_size(dtype);
  p.payload.resize(pairs.size() * (sizeof(u32) + es));
  std::byte* idx_out = p.payload.data();
  std::byte* val_out = p.payload.data() + pairs.size() * sizeof(u32);
  // Narrow each staged f64 to the wire dtype; the dtype is resolved once.
  with_storage_type(dtype, [&](auto tag) {
    using T = decltype(tag);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      std::memcpy(idx_out + i * sizeof(u32), &pairs[i].index, sizeof(u32));
      const T v = narrow_from_f64<T>(pairs[i].value);
      std::memcpy(val_out + i * sizeof(T), &v, sizeof(T));
    }
  });
  return p;
}

void accumulate_sparse_pairs(std::byte* acc, std::span<const SparsePair> pairs,
                             DType dtype, const ElementCombiner& combine) {
  with_storage_type(dtype, [&](auto tag) {
    using T = decltype(tag);
    for (const SparsePair& sp : pairs) {
      const T v = narrow_from_f64<T>(sp.value);
      combine(acc + static_cast<std::size_t>(sp.index) * sizeof(T), &v);
    }
  });
}

Packet make_empty_block_packet(u32 allreduce_id, u32 block_id,
                               u16 child_index) {
  Packet p;
  p.hdr.allreduce_id = allreduce_id;
  p.hdr.block_id = block_id;
  p.hdr.child_index = child_index;
  p.hdr.flags = kFlagSparse | kFlagLastShard | kFlagEmptyBlock;
  p.hdr.shard_count = 1;
  p.hdr.elem_count = 0;
  return p;
}

f64 SparseView::value_as_f64(u32 i) const {
  FLARE_ASSERT(i < count);
  return with_storage_type(dtype, [&](auto tag) {
    decltype(tag) v;
    std::memcpy(&v, values + static_cast<std::size_t>(i) * sizeof(v),
                sizeof(v));
    return widen_to_f64(v);
  });
}

SparseView sparse_view(const Packet& p, DType dtype) {
  FLARE_ASSERT(p.is_sparse());
  SparseView v;
  v.count = p.hdr.elem_count;
  v.dtype = dtype;
  if (v.count > 0) {
    FLARE_ASSERT(p.payload.size() ==
                 v.count * (sizeof(u32) + dtype_size(dtype)));
    v.indices = reinterpret_cast<const u32*>(p.payload.data());
    v.values = p.payload.data() + v.count * sizeof(u32);
  }
  return v;
}

}  // namespace flare::core

#include "workload/generators.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/assert.hpp"

namespace flare::workload {

std::vector<core::TypedBuffer> make_dense_data(u32 hosts, std::size_t elems,
                                               core::DType dtype, u64 seed) {
  std::vector<core::TypedBuffer> out(hosts);
  for (u32 h = 0; h < hosts; ++h) {
    Rng rng(derive_seed(seed, h));
    out[h].reshape(dtype, elems);
    out[h].fill_random(rng);
  }
  return out;
}

DenseInputs::DenseInputs(u32 hosts, std::size_t elems,
                         std::size_t block_elems, core::DType dtype, u64 seed,
                         const core::ReduceOp& op)
    : block_elems_(block_elems),
      inputs_(make_dense_data(hosts, elems, dtype, seed)) {
  FLARE_ASSERT(elems >= 1 && block_elems >= 1);
  core::reference_reduce_into(reference_, inputs_, op);
}

std::size_t DenseInputs::rotation(u32 iteration) const {
  const std::size_t elems = reference_.size();
  const std::size_t blocks = (elems + block_elems_ - 1) / block_elems_;
  if (blocks >= 2) return (iteration % blocks) * block_elems_;
  return iteration % elems;
}

const std::byte* rotated_slice(const core::TypedBuffer& base,
                               std::size_t shift, std::size_t first,
                               std::size_t n, core::TypedBuffer& bounce) {
  const std::size_t size = base.size();
  FLARE_ASSERT(shift < size && first + n <= size);
  const std::size_t start = (first + shift) % size;
  if (start + n <= size) return base.at_byte(start);
  const std::size_t esize = core::dtype_size(base.dtype());
  const std::size_t head = (size - start) * esize;
  bounce.reshape(base.dtype(), n);
  std::memcpy(bounce.data(), base.at_byte(start), head);
  std::memcpy(bounce.data() + head, base.data(), n * esize - head);
  return bounce.data();
}

namespace {

/// A set over [0, span) as one bit per index.  Set bits read back in
/// ascending order, so the draws below come out sorted and unique without
/// a sort.
class IndexBitmap {
 public:
  explicit IndexBitmap(u32 span) : span_(span), words_((span + 63) / 64, 0) {}

  /// Inserts `idx`; false when it was already present.
  bool insert(u32 idx) {
    u64& w = words_[idx / 64];
    const u64 bit = u64{1} << (idx % 64);
    if ((w & bit) != 0) return false;
    w |= bit;
    ++count_;
    return true;
  }

  /// Draws `count` indices in [0, span) not yet in the set and inserts
  /// them; a repeat is drawn again.
  void draw_distinct(Rng& rng, std::size_t count) {
    FLARE_ASSERT(count_ + count <= span_);
    while (count > 0) {
      if (insert(static_cast<u32>(rng.uniform_u64(span_)))) count -= 1;
    }
  }

  std::size_t count() const { return count_; }

  /// Calls f(index) for every member in ascending order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t k = 0; k < words_.size(); ++k) {
      for (u64 w = words_[k]; w != 0; w &= w - 1) {
        f(static_cast<u32>(64 * k) + static_cast<u32>(std::countr_zero(w)));
      }
    }
  }

  /// The members in ascending order.
  std::vector<u32> indices() const {
    std::vector<u32> out;
    out.reserve(count_);
    for_each([&](u32 i) { out.push_back(i); });
    return out;
  }

 private:
  u32 span_;
  std::vector<u64> words_;
  std::size_t count_ = 0;
};

/// The non-zero index set of `host`'s data in `block`.
IndexBitmap block_index_set(const SparseSpec& spec, u32 host, u32 block) {
  const f64 expected =
      static_cast<f64>(spec.span) * std::clamp(spec.density, 0.0, 1.0);
  // Per-host per-block Poisson-ish variation around the expectation, but
  // deterministic: jitter comes from the host/block RNG itself.
  Rng host_rng(derive_seed(derive_seed(spec.seed, 0x5A5A + host), block));
  f64 jitter = 1.0 + 0.25 * (host_rng.uniform() - 0.5);
  std::size_t nnz = static_cast<std::size_t>(expected * jitter + 0.5);
  nnz = std::min<std::size_t>(nnz, spec.span);

  const std::size_t shared_count = static_cast<std::size_t>(
      static_cast<f64>(nnz) * std::clamp(spec.overlap, 0.0, 1.0) + 0.5);

  IndexBitmap set(spec.span);
  if (shared_count > 0) {
    // The shared pool is drawn from a block-only RNG: every host picks the
    // same pool, modelling "important coordinates are important everywhere".
    Rng shared_rng(derive_seed(derive_seed(spec.seed, 0xC0DE), block));
    set.draw_distinct(shared_rng, shared_count);
  }
  if (nnz > shared_count) set.draw_distinct(host_rng, nnz - shared_count);
  return set;
}

}  // namespace

std::vector<u32> sparse_block_indices(const SparseSpec& spec, u32 host,
                                      u32 block) {
  return block_index_set(spec, host, block).indices();
}

std::vector<core::SparsePair> sparse_block_pairs(const SparseSpec& spec,
                                                 u32 host, u32 block) {
  const IndexBitmap set = block_index_set(spec, host, block);
  Rng val_rng(
      derive_seed(derive_seed(spec.seed, 0x7A1Eu + host), block));
  const bool integer = !core::dtype_is_float(spec.dtype);
  std::vector<core::SparsePair> out;
  out.reserve(set.count());
  set.for_each([&](u32 i) {
    f64 v = val_rng.uniform(-8.0, 8.0);
    if (integer) v = std::floor(v);
    if (v == 0.0) v = 1.0;  // non-zero by construction
    out.push_back({i, v});
  });
  return out;
}

core::TypedBuffer densify(const SparseSpec& spec,
                          const std::vector<core::SparsePair>& pairs) {
  core::TypedBuffer buf(spec.dtype, spec.span);
  core::ReduceOp sum(core::OpKind::kSum);
  buf.fill_identity(sum);
  for (const auto& p : pairs) buf.set_from_f64(p.index, p.value);
  return buf;
}

std::size_t union_index_count(const SparseSpec& spec, u32 hosts, u32 block) {
  IndexBitmap all(spec.span);
  for (u32 h = 0; h < hosts; ++h) {
    for (const u32 i : sparse_block_indices(spec, h, block)) all.insert(i);
  }
  return all.count();
}

}  // namespace flare::workload

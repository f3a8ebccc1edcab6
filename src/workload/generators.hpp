// Synthetic workload generators.
//
// Dense vectors are uniform random values scaled so integer reductions never
// overflow across hosts.  A dense request draws its inputs and their
// reference reduction once (DenseInputs); its later iterations rotate them
// instead of drawing again.  Sparse blocks model the index structure that
// governs in-network sparse allreduce performance (Section 7.1): the degree
// to which different hosts' non-zero indices OVERLAP controls both
// "densification" along the tree and hash-store collision pressure.  Real
// gradient sparsification (top-k) is highly overlapped — important
// coordinates are important on every host — so the generator exposes an
// `overlap` knob: a fraction of each block's non-zeros is drawn from a
// block-shared set, the rest privately per host.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "core/packet.hpp"
#include "core/typed_buffer.hpp"

namespace flare::workload {

/// P dense vectors of `elems` elements; host h draws from
/// derive_seed(seed, h).
std::vector<core::TypedBuffer> make_dense_data(u32 hosts, std::size_t elems,
                                               core::DType dtype, u64 seed);

/// A dense request's inputs, drawn once, and their reference reduction.
///
/// Iteration k of the request does not draw again: every input, and the
/// reference with them, is rotated left by rotation(k) elements.  With B
/// blocks of `block_elems` each, that is (k mod B) whole blocks when B >= 2
/// (with every block full, block b of iteration k is base block
/// (b + k) mod B), and k mod elems single elements for a one-block message.
/// Each output element still reduces the same operands in the same host
/// order, so the rotated reference is exact for every dtype and op.
class DenseInputs {
 public:
  /// make_dense_data(hosts, elems, dtype, seed), reduced in host order by
  /// `op` into the reference.
  DenseInputs(u32 hosts, std::size_t elems, std::size_t block_elems,
              core::DType dtype, u64 seed, const core::ReduceOp& op);

  const core::TypedBuffer& input(u32 host) const { return inputs_[host]; }
  const core::TypedBuffer& reference() const { return reference_; }
  /// Elements iteration `iteration` rotates every vector left by.
  std::size_t rotation(u32 iteration) const;

 private:
  std::size_t block_elems_;
  std::vector<core::TypedBuffer> inputs_;
  core::TypedBuffer reference_;
};

/// Elements [first, first + n) of `base` rotated left by `shift`: a pointer
/// into `base` when the range does not wrap past its end, else into
/// `bounce`, which receives a copy.
const std::byte* rotated_slice(const core::TypedBuffer& base,
                               std::size_t shift, std::size_t first,
                               std::size_t n, core::TypedBuffer& bounce);

struct SparseSpec {
  u32 span = 1280;        ///< index space per block
  f64 density = 0.10;     ///< expected fraction of non-zeros per host
  f64 overlap = 0.0;      ///< fraction of non-zeros drawn from a shared set
  core::DType dtype = core::DType::kFloat32;
  u64 seed = 1;
};

/// The sorted, unique non-zero indices of `host`'s data in `block`.
/// Deterministic in (spec.seed, host, block).
std::vector<u32> sparse_block_indices(const SparseSpec& spec, u32 host,
                                      u32 block);

/// (index, value) pairs for one host/block; values are uniform in
/// [-8, 8) \ {0} (and integer-floored for integer dtypes).
std::vector<core::SparsePair> sparse_block_pairs(const SparseSpec& spec,
                                                 u32 host, u32 block);

/// Scatters `pairs` into a dense TypedBuffer of `span` elements
/// (absent indices = 0) — the reference-side representation.
core::TypedBuffer densify(const SparseSpec& spec,
                          const std::vector<core::SparsePair>& pairs);

/// Number of distinct indices across all hosts for one block (the "ideal"
/// fully-aggregated pair count, denominator of the extra-traffic metric).
std::size_t union_index_count(const SparseSpec& spec, u32 hosts, u32 block);

}  // namespace flare::workload

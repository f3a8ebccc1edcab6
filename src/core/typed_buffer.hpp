// A dynamically-typed contiguous vector of reduction elements.
//
// Hosts, tests and reference reductions manipulate data through this class;
// the switch-side engines work on raw payload bytes for speed but produce
// data that TypedBuffer can check element-wise.
#pragma once

#include <cstring>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/dtype.hpp"
#include "core/reduce_op.hpp"

namespace flare::core {

class TypedBuffer {
 public:
  TypedBuffer() = default;
  TypedBuffer(DType dtype, std::size_t elems)
      : dtype_(dtype), elems_(elems), bytes_(elems * dtype_size(dtype)) {}

  /// Re-types and resizes in place, reusing the storage when it is large
  /// enough.  Element values are unspecified; callers overwrite them.
  void reshape(DType dtype, std::size_t elems) {
    dtype_ = dtype;
    elems_ = elems;
    bytes_.resize(elems * dtype_size(dtype));
  }

  DType dtype() const { return dtype_; }
  std::size_t size() const { return elems_; }
  std::size_t size_bytes() const { return bytes_.size(); }
  std::byte* data() { return bytes_.data(); }
  const std::byte* data() const { return bytes_.data(); }

  std::byte* at_byte(std::size_t elem_index) {
    return bytes_.data() + elem_index * dtype_size(dtype_);
  }
  const std::byte* at_byte(std::size_t elem_index) const {
    return bytes_.data() + elem_index * dtype_size(dtype_);
  }

  /// Reads element i widened to f64 (f16 goes through f32).
  f64 get_as_f64(std::size_t i) const;
  /// Writes element i from an f64 (narrowing like handler code would).
  void set_from_f64(std::size_t i, f64 v);

  /// this[i] = op(this[i], other[i]) for all elements.
  void accumulate(const TypedBuffer& other, const ReduceOp& op) {
    FLARE_ASSERT(other.dtype_ == dtype_ && other.elems_ == elems_);
    op.apply(dtype_, bytes_.data(), other.bytes_.data(), elems_);
  }

  void fill_identity(const ReduceOp& op) {
    op.fill_identity(dtype_, bytes_.data(), elems_);
  }

  /// Fills with deterministic pseudo-random values scaled for the dtype
  /// (small magnitudes so integer sums across many hosts do not overflow).
  void fill_random(Rng& rng, f64 lo = -8.0, f64 hi = 8.0);

  bool bitwise_equal(const TypedBuffer& other) const {
    return dtype_ == other.dtype_ && bytes_ == other.bytes_;
  }

  /// Max |a-b| over elements, widened to f64.
  f64 max_abs_diff(const TypedBuffer& other) const;

  /// Count of elements not bitwise-equal to `other`.
  std::size_t count_mismatches(const TypedBuffer& other) const;

 private:
  DType dtype_ = DType::kFloat32;
  std::size_t elems_ = 0;
  std::vector<std::byte> bytes_;
};

/// Max |a[i]-b[i]| over `elems` elements of `dtype` at raw storage `a` and
/// `b`, widened to f64: a memcmp fast path, then a per-dtype diff loop.
/// TypedBuffer::max_abs_diff over a whole buffer; a host checking one
/// delivered block against its slice of the reference, per block.
f64 max_abs_diff(DType dtype, const std::byte* a, const std::byte* b,
                 std::size_t elems);

/// Serial reference allreduce: reduces `inputs` in index order with `op`.
/// This is the ground truth every simulated collective is checked against.
TypedBuffer reference_reduce(const std::vector<TypedBuffer>& inputs,
                             const ReduceOp& op);
/// reference_reduce into `out`, reusing its storage.
void reference_reduce_into(TypedBuffer& out,
                           const std::vector<TypedBuffer>& inputs,
                           const ReduceOp& op);

/// Numeric tolerance of a `participants`-way reduction check against
/// reference_reduce over the network simulator: floats accumulate
/// association-order rounding per participant, integers are exact.  (The
/// PsPIN single-switch experiments use their own, tighter calibration.)
f64 reduce_tolerance(DType dtype, u32 participants);

}  // namespace flare::core

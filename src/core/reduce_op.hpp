// Reduction operators.
//
// The built-in operators mirror the MPI set the paper references (sum, prod,
// min, max, bitwise and/or/xor); *custom* operators — the heart of
// flexibility item F1 — are arbitrary C++ callables applied element-wise,
// exactly as a sPIN handler would run arbitrary C on the packet payload.
//
// Operand-order convention: `apply(acc, in)` computes
//     acc[i] = op(acc[i], in[i])
// i.e. the accumulator is the LEFT operand.  The tree aggregation policy
// relies on this to pin a fixed association/operand order for bitwise
// reproducibility (F3).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/dtype.hpp"

namespace flare::core {

enum class OpKind : u8 {
  kSum = 0,
  kProd,
  kMin,
  kMax,
  kBand,  ///< bitwise and (integer types only)
  kBor,   ///< bitwise or  (integer types only)
  kBxor,  ///< bitwise xor (integer types only)
  kCustom,
};

std::string_view op_name(OpKind k);

/// Signature of a custom element-wise kernel: must compute
/// acc[i] = f(acc[i], in[i]) for `n` elements of type `t`.
/// `acc` and `in` point to raw element storage.
using CustomKernel =
    std::function<void(DType t, void* acc, const void* in, std::size_t n)>;

/// Fills `n` elements with a custom identity value.
using CustomIdentity = std::function<void(DType t, void* dst, std::size_t n)>;

class ReduceOp;

/// acc = op(acc, in) on ONE element of the dtype it was resolved for
/// (ReduceOp::combiner), at storage that may be misaligned: sparse wire
/// formats pack (index, value) pairs without padding.  A builtin op runs a
/// typed scalar body that loads and stores through memcpy (f16 combines
/// through f32, as apply does); a custom op runs its kernel on one element
/// bounced through aligned cells.  Resolving once takes the (dtype, op)
/// dispatch and the alignment check out of per-element loops.
class ElementCombiner {
 public:
  void operator()(void* acc, const void* in) const { fn_(*this, acc, in); }

 private:
  friend class ReduceOp;
  using Fn = void (*)(const ElementCombiner& self, void* acc,
                      const void* in);
  static void combine_custom(const ElementCombiner& self, void* acc,
                             const void* in);

  Fn fn_ = nullptr;
  DType dtype_ = DType::kFloat32;
  std::shared_ptr<const CustomKernel> custom_kernel_;  ///< custom ops only
};

/// A reduction operator; cheap to copy (custom state is shared).
class ReduceOp {
 public:
  /// Builds one of the predefined operators.
  explicit ReduceOp(OpKind kind = OpKind::kSum);

  /// Builds a custom operator (F1).  `commutative` tells the engine whether
  /// arrival order may be exploited; reproducible mode ignores it and always
  /// uses the fixed tree order.
  static ReduceOp custom(std::string name, CustomKernel kernel,
                         CustomIdentity identity, bool commutative = true);

  /// Convenience: wraps a typed binary functor `T f(T, T)` for every dtype.
  /// Float16 payloads are converted through f32 around `f`.
  template <typename F>
  static ReduceOp custom_binary(std::string name, F f, f64 identity_value,
                                bool commutative = true);

  OpKind kind() const { return kind_; }
  const std::string& name() const { return name_; }
  bool commutative() const { return commutative_; }

  /// acc[i] = op(acc[i], in[i]) for n elements of dtype t.
  void apply(DType t, void* acc, const void* in, std::size_t n) const;

  /// The one-element combiner for dtype t; combines exactly as
  /// apply(t, acc, in, 1) does.
  ElementCombiner combiner(DType t) const;

  /// Writes the operator identity into n elements of dtype t.
  void fill_identity(DType t, void* dst, std::size_t n) const;

  /// True if the operator supports this dtype (bitwise ops reject floats).
  bool supports(DType t) const;

 private:
  OpKind kind_;
  std::string name_;
  bool commutative_ = true;
  std::shared_ptr<const CustomKernel> custom_kernel_;
  std::shared_ptr<const CustomIdentity> custom_identity_;
};

template <typename F>
ReduceOp ReduceOp::custom_binary(std::string name, F f, f64 identity_value,
                                 bool commutative) {
  auto kernel = [f](DType t, void* acc, const void* in, std::size_t n) {
    auto loop = [&](auto* a, const auto* b) {
      using T = std::remove_reference_t<decltype(*a)>;
      for (std::size_t i = 0; i < n; ++i)
        a[i] = static_cast<T>(f(a[i], b[i]));
    };
    switch (t) {
      case DType::kInt8:
        loop(static_cast<i8*>(acc), static_cast<const i8*>(in));
        break;
      case DType::kInt16:
        loop(static_cast<i16*>(acc), static_cast<const i16*>(in));
        break;
      case DType::kInt32:
        loop(static_cast<i32*>(acc), static_cast<const i32*>(in));
        break;
      case DType::kInt64:
        loop(static_cast<i64*>(acc), static_cast<const i64*>(in));
        break;
      case DType::kFloat32:
        loop(static_cast<f32*>(acc), static_cast<const f32*>(in));
        break;
      case DType::kFloat16: {
        auto* a = static_cast<u16*>(acc);
        const auto* b = static_cast<const u16*>(in);
        for (std::size_t i = 0; i < n; ++i) {
          a[i] = f32_to_f16(
              static_cast<f32>(f(f16_to_f32(a[i]), f16_to_f32(b[i]))));
        }
        break;
      }
    }
  };
  auto identity = [identity_value](DType t, void* dst, std::size_t n) {
    auto fill = [&](auto* d) {
      using T = std::remove_reference_t<decltype(*d)>;
      for (std::size_t i = 0; i < n; ++i) d[i] = static_cast<T>(identity_value);
    };
    switch (t) {
      case DType::kInt8: fill(static_cast<i8*>(dst)); break;
      case DType::kInt16: fill(static_cast<i16*>(dst)); break;
      case DType::kInt32: fill(static_cast<i32*>(dst)); break;
      case DType::kInt64: fill(static_cast<i64*>(dst)); break;
      case DType::kFloat32: fill(static_cast<f32*>(dst)); break;
      case DType::kFloat16: {
        auto* d = static_cast<u16*>(dst);
        const u16 h = f32_to_f16(static_cast<f32>(identity_value));
        for (std::size_t i = 0; i < n; ++i) d[i] = h;
        break;
      }
    }
  };
  return custom(std::move(name), std::move(kernel), std::move(identity),
                commutative);
}

}  // namespace flare::core

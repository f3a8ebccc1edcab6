#include "core/reduce_op.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/assert.hpp"

namespace flare::core {

namespace {

constexpr std::size_t kBuiltinOps = 7;  // kSum..kBxor (kCustom excluded)
constexpr std::size_t kDTypeCount = std::size(kAllDTypes);

/// One fully monomorphized element loop per (dtype, op), dispatched by the
/// table below so no dtype or op branch sits inside a loop.
using KernelFn = void (*)(void* acc, const void* in, std::size_t n);

template <typename T, OpKind K>
T combine(T a, T b) {
  if constexpr (K == OpKind::kSum) {
    return static_cast<T>(a + b);
  } else if constexpr (K == OpKind::kProd) {
    return static_cast<T>(a * b);
  } else if constexpr (K == OpKind::kMin) {
    return std::min(a, b);
  } else if constexpr (K == OpKind::kMax) {
    return std::max(a, b);
  } else if constexpr (K == OpKind::kBand) {
    return static_cast<T>(a & b);
  } else if constexpr (K == OpKind::kBor) {
    return static_cast<T>(a | b);
  } else {
    return static_cast<T>(a ^ b);
  }
}

/// Bytes per chunk of the builtin kernels: four 16-byte SSE vectors.
constexpr std::size_t kChunkBytes = 64;

// GCC's default -O2 cost model ("very cheap") vectorizes only a loop whose
// trip count is known and that needs no runtime alias check, and it honours
// `__restrict` on parameters but not on locals.  So the kernels take
// `__restrict` parameters and run constant-width chunks plus a scalar tail.
// The chunk loop compiles to SIMD (`paddd` in kernel<int, kSum>), and the
// unroll pragma then turns its four vector iterations into straight-line
// code.  (A full unroll pragma would unroll before vectorizing, leaving the
// i8 kernels scalar.)  Every element still sees the same operation with the
// accumulator on the left, so results match a scalar loop bit for bit.
template <typename T, OpKind K>
void kernel(void* __restrict accv, const void* __restrict inv,
            std::size_t n) {
  T* acc = static_cast<T*>(accv);
  const T* in = static_cast<const T*>(inv);
  constexpr std::size_t kWidth = kChunkBytes / sizeof(T);
  std::size_t i = 0;
  for (; i + kWidth <= n; i += kWidth) {
#pragma GCC unroll 4  // kChunkBytes / 16
    for (std::size_t j = 0; j < kWidth; ++j) {
      acc[i + j] = combine<T, K>(acc[i + j], in[i + j]);
    }
  }
  for (; i < n; ++i) acc[i] = combine<T, K>(acc[i], in[i]);
}

// Float16: convert through f32 per element, exactly like handler code on an
// FP16-capable FPU that widens to f32 internally.
// The conversions are out-of-line calls, so this loop stays scalar.
template <OpKind K>
void kernel_f16(void* __restrict accv, const void* __restrict inv,
                std::size_t n) {
  u16* acc = static_cast<u16*>(accv);
  const u16* in = static_cast<const u16*>(inv);
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] =
        f32_to_f16(combine<f32, K>(f16_to_f32(acc[i]), f16_to_f32(in[i])));
  }
}

// One-element bodies behind ElementCombiner: the same combine as the
// kernels above, loaded and stored through memcpy so the operands may sit
// anywhere in a packed sparse payload or store cell.
template <typename T, OpKind K>
void combine_one(const ElementCombiner& /*self*/, void* acc, const void* in) {
  T a;
  T b;
  std::memcpy(&a, acc, sizeof(T));
  std::memcpy(&b, in, sizeof(T));
  a = combine<T, K>(a, b);
  std::memcpy(acc, &a, sizeof(T));
}

template <OpKind K>
void combine_one_f16(const ElementCombiner& /*self*/, void* acc,
                     const void* in) {
  u16 a;
  u16 b;
  std::memcpy(&a, acc, sizeof(u16));
  std::memcpy(&b, in, sizeof(u16));
  a = f32_to_f16(combine<f32, K>(f16_to_f32(a), f16_to_f32(b)));
  std::memcpy(acc, &a, sizeof(u16));
}

template <typename T>
constexpr std::array<KernelFn, kBuiltinOps> integer_row() {
  return {&kernel<T, OpKind::kSum>,  &kernel<T, OpKind::kProd>,
          &kernel<T, OpKind::kMin>,  &kernel<T, OpKind::kMax>,
          &kernel<T, OpKind::kBand>, &kernel<T, OpKind::kBor>,
          &kernel<T, OpKind::kBxor>};
}

// Rows indexed by DType value, columns by OpKind value.  Bitwise columns of
// float rows are null — supports() rejects those pairs before dispatch.
constexpr std::array<std::array<KernelFn, kBuiltinOps>, kDTypeCount>
    kKernelTable{{
        integer_row<i8>(),   // kInt8
        integer_row<i16>(),  // kInt16
        integer_row<i32>(),  // kInt32
        integer_row<i64>(),  // kInt64
        {&kernel_f16<OpKind::kSum>, &kernel_f16<OpKind::kProd>,
         &kernel_f16<OpKind::kMin>, &kernel_f16<OpKind::kMax>, nullptr,
         nullptr, nullptr},  // kFloat16
        {&kernel<f32, OpKind::kSum>, &kernel<f32, OpKind::kProd>,
         &kernel<f32, OpKind::kMin>, &kernel<f32, OpKind::kMax>, nullptr,
         nullptr, nullptr},  // kFloat32
    }};

using CombineFn = void (*)(const ElementCombiner&, void*, const void*);

template <typename T>
constexpr std::array<CombineFn, kBuiltinOps> integer_combine_row() {
  return {&combine_one<T, OpKind::kSum>,  &combine_one<T, OpKind::kProd>,
          &combine_one<T, OpKind::kMin>,  &combine_one<T, OpKind::kMax>,
          &combine_one<T, OpKind::kBand>, &combine_one<T, OpKind::kBor>,
          &combine_one<T, OpKind::kBxor>};
}

// Laid out like kKernelTable.
constexpr std::array<std::array<CombineFn, kBuiltinOps>, kDTypeCount>
    kCombineTable{{
        integer_combine_row<i8>(),   // kInt8
        integer_combine_row<i16>(),  // kInt16
        integer_combine_row<i32>(),  // kInt32
        integer_combine_row<i64>(),  // kInt64
        {&combine_one_f16<OpKind::kSum>, &combine_one_f16<OpKind::kProd>,
         &combine_one_f16<OpKind::kMin>, &combine_one_f16<OpKind::kMax>,
         nullptr, nullptr, nullptr},  // kFloat16
        {&combine_one<f32, OpKind::kSum>, &combine_one<f32, OpKind::kProd>,
         &combine_one<f32, OpKind::kMin>, &combine_one<f32, OpKind::kMax>,
         nullptr, nullptr, nullptr},  // kFloat32
    }};

template <typename T>
T identity_of(OpKind k) {
  switch (k) {
    case OpKind::kSum: return T{0};
    case OpKind::kProd: return T{1};
    case OpKind::kMin:
      // Floats: +inf, NOT numeric_limits<T>::max() — min(FLT_MAX, +inf)
      // is FLT_MAX, so a max()-identity silently clips +inf inputs.
      if constexpr (std::is_floating_point_v<T>) {
        return std::numeric_limits<T>::infinity();
      } else {
        return std::numeric_limits<T>::max();
      }
    case OpKind::kMax:
      if constexpr (std::is_floating_point_v<T>) {
        return -std::numeric_limits<T>::infinity();
      } else {
        return std::numeric_limits<T>::lowest();
      }
    case OpKind::kBand:
      if constexpr (std::is_integral_v<T>) {
        return static_cast<T>(~T{0});
      } else {
        return T{0};
      }
    case OpKind::kBor: return T{0};
    case OpKind::kBxor: return T{0};
    case OpKind::kCustom: break;
  }
  return T{0};
}

}  // namespace

std::string_view op_name(OpKind k) {
  switch (k) {
    case OpKind::kSum: return "sum";
    case OpKind::kProd: return "prod";
    case OpKind::kMin: return "min";
    case OpKind::kMax: return "max";
    case OpKind::kBand: return "band";
    case OpKind::kBor: return "bor";
    case OpKind::kBxor: return "bxor";
    case OpKind::kCustom: return "custom";
  }
  return "?";
}

ReduceOp::ReduceOp(OpKind kind) : kind_(kind), name_(op_name(kind)) {
  FLARE_ASSERT_MSG(kind != OpKind::kCustom,
                   "use ReduceOp::custom() for custom operators");
}

ReduceOp ReduceOp::custom(std::string name, CustomKernel kernel,
                          CustomIdentity identity, bool commutative) {
  ReduceOp op(OpKind::kSum);
  op.kind_ = OpKind::kCustom;
  op.name_ = std::move(name);
  op.commutative_ = commutative;
  op.custom_kernel_ =
      std::make_shared<const CustomKernel>(std::move(kernel));
  op.custom_identity_ =
      std::make_shared<const CustomIdentity>(std::move(identity));
  return op;
}

bool ReduceOp::supports(DType t) const {
  if (kind_ == OpKind::kBand || kind_ == OpKind::kBor ||
      kind_ == OpKind::kBxor) {
    return !dtype_is_float(t);
  }
  return true;
}

void ReduceOp::apply(DType t, void* acc, const void* in,
                     std::size_t n) const {
  FLARE_ASSERT_MSG(supports(t), "operator does not support this dtype");
  // Sparse wire formats pack (index, value) pairs without padding, so `in`
  // (and in principle `acc`) may be misaligned for the dtype.  Bounce
  // misaligned spans through an aligned scratch chunk; typed kernels below
  // may then dereference directly.
  const std::size_t esize = dtype_size(t);
  const bool in_misaligned =
      reinterpret_cast<std::uintptr_t>(in) % esize != 0;
  const bool acc_misaligned =
      reinterpret_cast<std::uintptr_t>(acc) % esize != 0;
  if (in_misaligned || acc_misaligned) {
    alignas(16) std::byte in_scratch[256];
    alignas(16) std::byte acc_scratch[256];
    const std::size_t chunk = sizeof(in_scratch) / esize;
    auto* acc_bytes = static_cast<std::byte*>(acc);
    const auto* in_bytes = static_cast<const std::byte*>(in);
    for (std::size_t off = 0; off < n; off += chunk) {
      const std::size_t m = std::min(chunk, n - off);
      const void* in_chunk = in_bytes + off * esize;
      void* acc_chunk = acc_bytes + off * esize;
      if (in_misaligned) {
        std::memcpy(in_scratch, in_chunk, m * esize);
        in_chunk = in_scratch;
      }
      if (acc_misaligned) {
        std::memcpy(acc_scratch, acc_chunk, m * esize);
        apply(t, acc_scratch, in_chunk, m);
        std::memcpy(acc_chunk, acc_scratch, m * esize);
      } else {
        apply(t, acc_chunk, in_chunk, m);
      }
    }
    return;
  }
  if (kind_ == OpKind::kCustom) {
    (*custom_kernel_)(t, acc, in, n);
    return;
  }
  const KernelFn fn =
      kKernelTable[static_cast<std::size_t>(t)][static_cast<std::size_t>(kind_)];
  FLARE_ASSERT(fn != nullptr);
  fn(acc, in, n);
}

void ElementCombiner::combine_custom(const ElementCombiner& self, void* acc,
                                     const void* in) {
  // The kernel sees aligned operands, as apply's bounce gives it.
  const std::size_t esize = dtype_size(self.dtype_);
  alignas(8) std::byte a[8];
  alignas(8) std::byte b[8];
  std::memcpy(a, acc, esize);
  std::memcpy(b, in, esize);
  (*self.custom_kernel_)(self.dtype_, a, b, 1);
  std::memcpy(acc, a, esize);
}

ElementCombiner ReduceOp::combiner(DType t) const {
  FLARE_ASSERT_MSG(supports(t), "operator does not support this dtype");
  ElementCombiner c;
  c.dtype_ = t;
  if (kind_ == OpKind::kCustom) {
    c.fn_ = &ElementCombiner::combine_custom;
    c.custom_kernel_ = custom_kernel_;
  } else {
    c.fn_ = kCombineTable[static_cast<std::size_t>(t)]
                         [static_cast<std::size_t>(kind_)];
  }
  FLARE_ASSERT(c.fn_ != nullptr);
  return c;
}

void ReduceOp::fill_identity(DType t, void* dst, std::size_t n) const {
  if (kind_ == OpKind::kCustom) {
    (*custom_identity_)(t, dst, n);
    return;
  }
  switch (t) {
    case DType::kInt8: {
      const i8 v = identity_of<i8>(kind_);
      std::fill_n(static_cast<i8*>(dst), n, v);
      break;
    }
    case DType::kInt16: {
      const i16 v = identity_of<i16>(kind_);
      std::fill_n(static_cast<i16*>(dst), n, v);
      break;
    }
    case DType::kInt32: {
      const i32 v = identity_of<i32>(kind_);
      std::fill_n(static_cast<i32*>(dst), n, v);
      break;
    }
    case DType::kInt64: {
      const i64 v = identity_of<i64>(kind_);
      std::fill_n(static_cast<i64*>(dst), n, v);
      break;
    }
    case DType::kFloat32: {
      const f32 v = identity_of<f32>(kind_);
      std::fill_n(static_cast<f32*>(dst), n, v);
      break;
    }
    case DType::kFloat16: {
      // f16 identities ride the f32 path: f32_to_f16 maps ±inf to the f16
      // infinities (0x7C00 / 0xFC00), so the min/max fix above propagates.
      const u16 v = f32_to_f16(identity_of<f32>(kind_));
      std::fill_n(static_cast<u16*>(dst), n, v);
      break;
    }
  }
}

}  // namespace flare::core

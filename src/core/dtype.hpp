// Element data types supported by the Flare aggregation engine.
//
// Flexibility limitation F1 of the paper: fixed-function and RMT-based
// switches support a frozen set of types (SwitchML: int32 only).  Flare
// handlers are software, so any type with a C representation works; this
// reproduction ships the types the paper evaluates (int8/16/32, fp16, fp32,
// Figure 11) plus int64, and fp16 is implemented in software exactly as a
// RISC-V core without a double-precision FPU would handle it.
#pragma once

#include <cstddef>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace flare::core {

enum class DType : u8 {
  kInt8 = 0,
  kInt16,
  kInt32,
  kInt64,
  kFloat16,
  kFloat32,
};

inline constexpr DType kAllDTypes[] = {
    DType::kInt8,  DType::kInt16,   DType::kInt32,
    DType::kInt64, DType::kFloat16, DType::kFloat32,
};

/// Size in bytes of one element.
constexpr u32 dtype_size(DType t) {
  switch (t) {
    case DType::kInt8: return 1;
    case DType::kInt16: return 2;
    case DType::kInt32: return 4;
    case DType::kInt64: return 8;
    case DType::kFloat16: return 2;
    case DType::kFloat32: return 4;
  }
  return 0;
}

std::string_view dtype_name(DType t);

constexpr bool dtype_is_float(DType t) {
  return t == DType::kFloat16 || t == DType::kFloat32;
}

/// IEEE 754 binary16 <-> binary32 conversions (round-to-nearest-even),
/// matching the behaviour of the FPnew FP16 unit the paper adds to each HPU.
u16 f32_to_f16(f32 value);
f32 f16_to_f32(u16 half_bits);

/// Copies one element of `size` bytes (a dtype_size) with a fixed-size
/// copy per case, which compiles to one load and store instead of a
/// memcpy call: sparse pairs move one element at a time.
inline void copy_element(void* dst, const void* src, u32 size) {
  switch (size) {
    case 1: std::memcpy(dst, src, 1); return;
    case 2: std::memcpy(dst, src, 2); return;
    case 4: std::memcpy(dst, src, 4); return;
    case 8: std::memcpy(dst, src, 8); return;
  }
  std::memcpy(dst, src, size);
}

/// Calls f(T{}) with T the storage type of dtype `t`; u16 holds f16 bits.
/// Element loops call it once and run monomorphized in the callback, so no
/// dtype branch sits inside them.
template <typename F>
decltype(auto) with_storage_type(DType t, F&& f) {
  switch (t) {
    case DType::kInt8: return f(i8{});
    case DType::kInt16: return f(i16{});
    case DType::kInt32: return f(i32{});
    case DType::kInt64: return f(i64{});
    case DType::kFloat16: return f(u16{});
    case DType::kFloat32: return f(f32{});
  }
  FLARE_UNREACHABLE("unknown dtype");
}

/// Widens a stored element of storage type T to f64 (f16 via f32).
template <typename T>
f64 widen_to_f64(T x) {
  if constexpr (std::is_same_v<T, u16>) {
    return static_cast<f64>(f16_to_f32(x));
  } else {
    return static_cast<f64>(x);
  }
}

/// Narrows an f64 to storage type T like handler code would.
template <typename T>
T narrow_from_f64(f64 v) {
  if constexpr (std::is_same_v<T, u16>) {
    return f32_to_f16(static_cast<f32>(v));
  } else {
    return static_cast<T>(v);
  }
}

}  // namespace flare::core

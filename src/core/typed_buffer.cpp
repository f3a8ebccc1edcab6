#include "core/typed_buffer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

namespace flare::core {
namespace {

// Monomorphized bulk loops: fill_random and max_abs_diff walk every element
// of every host buffer (inside the simulator's timed region when jobs spawn
// mid-run), so the dtype dispatch is hoisted out of the loop here and the
// per-element body reduces to a fixed-size memcpy the compiler turns into a
// plain load/store.  fill_loop draws from a local copy of the generator and
// stores it back once: the `std::byte` stores may alias the caller's Rng,
// so drawing through the reference would write xoshiro's four state words
// back to memory after every element.

/// m when floor(lo + (hi - lo) * u) can be drawn exactly in integers: lo
/// and hi are integers, hi - lo = 2^m with m <= 53, |lo|, |hi| <= 2^m and
/// every value lo + [0, 2^m) fits in T.  With u = k * 2^-53 (k = x >> 11,
/// Rng::uniform), lo + (hi - lo) * u is then exact in f64, so its floor is
/// lo + (k >> (53 - m)).  -1 otherwise.
template <typename T>
int exact_int_span_log2(f64 lo, f64 hi) {
  int e = 0;
  if (lo != std::floor(lo) || hi != std::floor(hi) ||
      std::frexp(hi - lo, &e) != 0.5 || e > 54) {
    return -1;
  }
  const f64 span = std::ldexp(1.0, e - 1);
  if (std::abs(lo) > span || std::abs(hi) > span ||
      lo < static_cast<f64>(std::numeric_limits<T>::lowest()) ||
      lo + (span - 1.0) > static_cast<f64>(std::numeric_limits<T>::max())) {
    return -1;
  }
  return e - 1;
}

/// Integer dtypes draw floor(uniform(lo, hi)), float dtypes uniform(lo, hi).
template <typename T>
void fill_loop(std::byte* p, std::size_t n, Rng& rng_state, f64 lo, f64 hi) {
  constexpr bool kInteger = std::is_integral_v<T> && !std::is_same_v<T, u16>;
  Rng rng = rng_state;
  int m = -1;
  if constexpr (kInteger) m = exact_int_span_log2<T>(lo, hi);
  if (m >= 0) {
    const i64 base = static_cast<i64>(lo);
    for (std::size_t i = 0; i < n; ++i) {
      const u64 k = (rng() >> 11) >> (53 - m);
      const T x = static_cast<T>(base + static_cast<i64>(k));
      std::memcpy(p + i * sizeof(T), &x, sizeof(T));
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      f64 v = rng.uniform(lo, hi);
      if constexpr (kInteger) v = std::floor(v);
      const T x = narrow_from_f64<T>(v);
      std::memcpy(p + i * sizeof(T), &x, sizeof(T));
    }
  }
  rng_state = rng;
}

template <typename T>
f64 diff_loop(const std::byte* a, const std::byte* b, std::size_t n) {
  f64 worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    T x, y;
    std::memcpy(&x, a + i * sizeof(T), sizeof(T));
    std::memcpy(&y, b + i * sizeof(T), sizeof(T));
    worst = std::max(worst, std::abs(widen_to_f64(x) - widen_to_f64(y)));
  }
  return worst;
}

}  // namespace

f64 TypedBuffer::get_as_f64(std::size_t i) const {
  FLARE_ASSERT(i < elems_);
  return with_storage_type(dtype_, [&](auto tag) {
    decltype(tag) v;
    std::memcpy(&v, at_byte(i), sizeof(v));
    return widen_to_f64(v);
  });
}

void TypedBuffer::set_from_f64(std::size_t i, f64 v) {
  FLARE_ASSERT(i < elems_);
  with_storage_type(dtype_, [&](auto tag) {
    const auto x = narrow_from_f64<decltype(tag)>(v);
    std::memcpy(at_byte(i), &x, sizeof(x));
  });
}

void TypedBuffer::fill_random(Rng& rng, f64 lo, f64 hi) {
  with_storage_type(dtype_, [&](auto tag) {
    fill_loop<decltype(tag)>(bytes_.data(), elems_, rng, lo, hi);
  });
}

f64 TypedBuffer::max_abs_diff(const TypedBuffer& other) const {
  FLARE_ASSERT(other.dtype_ == dtype_ && other.elems_ == elems_);
  return core::max_abs_diff(dtype_, bytes_.data(), other.bytes_.data(),
                            elems_);
}

f64 max_abs_diff(DType dtype, const std::byte* a, const std::byte* b,
                 std::size_t elems) {
  // Bitwise-equal ranges (the common case for exact integer reductions)
  // have an elementwise diff of zero everywhere; one memcmp beats a
  // widen-and-subtract loop over every element.
  if (elems == 0 || std::memcmp(a, b, elems * dtype_size(dtype)) == 0) {
    return 0.0;
  }
  return with_storage_type(dtype, [&](auto tag) {
    return diff_loop<decltype(tag)>(a, b, elems);
  });
}

std::size_t TypedBuffer::count_mismatches(const TypedBuffer& other) const {
  FLARE_ASSERT(other.dtype_ == dtype_ && other.elems_ == elems_);
  std::size_t n = 0;
  const u32 es = dtype_size(dtype_);
  for (std::size_t i = 0; i < elems_; ++i) {
    if (std::memcmp(at_byte(i), other.at_byte(i), es) != 0) ++n;
  }
  return n;
}

TypedBuffer reference_reduce(const std::vector<TypedBuffer>& inputs,
                             const ReduceOp& op) {
  TypedBuffer acc;
  reference_reduce_into(acc, inputs, op);
  return acc;
}

void reference_reduce_into(TypedBuffer& out,
                           const std::vector<TypedBuffer>& inputs,
                           const ReduceOp& op) {
  FLARE_ASSERT(!inputs.empty());
  out = inputs.front();  // copy-assignment reuses out's storage
  for (std::size_t i = 1; i < inputs.size(); ++i) out.accumulate(inputs[i], op);
}

f64 reduce_tolerance(DType dtype, u32 participants) {
  if (dtype == DType::kFloat32) return 1e-3 * participants;
  if (dtype == DType::kFloat16) return 0.25 * participants;
  return 0.0;
}

}  // namespace flare::core

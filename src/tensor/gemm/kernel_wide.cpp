// The 12×8 register tile (kernels.h). On x86-64 this TU is compiled with
// -mavx512f regardless of the build's baseline -march (see
// src/tensor/CMakeLists.txt) and runs only after the cpuid check in
// wide_kernel_available() passed, which sits here rather than in
// kernel.cpp so that the TU that holds the tile is the one that says
// whether it was built. Elsewhere the TU is a stub that reports the tile
// unavailable.
//
// Tile geometry: 12×8 doubles — twelve 8-lane accumulators, one packed-B
// row and the broadcasts, of the 32 zmm registers. It is kernel.cpp's
// row kernel at twice the vector width: each k step loads one B row and
// issues one `acc += a * b` per row, which -ffp-contract=fast contracts to
// a single-rounded vfmadd. The twelve rows are two adjacent 6-row packed-A
// panels, so every packing routine keeps kMR = 6. Only full tiles come
// here; ragged rows and columns stay with kernel.cpp's kernel_tile.
#include "tensor/gemm/kernels.h"

#if defined(__AVX512F__) && defined(__FP_FAST_FMA)

namespace oasis::tensor::gemm::detail {
namespace {

// Eight doubles: one zmm register. `vec8_u` is the same vector at double
// alignment, aliasing double, to load and store C and packed B in place.
typedef double vec8 __attribute__((vector_size(64)));
typedef double vec8_u
    __attribute__((vector_size(64), aligned(8), may_alias));
static_assert(kNR == 8, "one tile row is one vec8 accumulator");

constexpr index_t kTileRows = 2 * kMR;

bool cpu_runs_wide_kernel() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
}

}  // namespace

bool wide_kernel_available() {
  static const bool available = kernel_available() && cpu_runs_wide_kernel();
  return available;
}

void kernel_tile12(index_t kc, const real* __restrict ap,
                   const real* __restrict bp, real* __restrict c,
                   index_t ldc) {
  const real* __restrict ap_hi = ap + kc * kMR;
  // Unrolled so the accumulators live in registers across the k loop, not
  // in a stack copy of the array.
  vec8 acc[kTileRows];
#pragma GCC unroll 12
  for (index_t r = 0; r < kTileRows; ++r)
    acc[r] = *reinterpret_cast<const vec8_u*>(c + r * ldc);
  for (index_t kk = 0; kk < kc; ++kk) {
    const vec8 b = *reinterpret_cast<const vec8_u*>(bp + kk * kNR);
    const real* __restrict lo = ap + kk * kMR;
    const real* __restrict hi = ap_hi + kk * kMR;
    for (index_t r = 0; r < kMR; ++r) acc[r] += lo[r] * b;
    for (index_t r = 0; r < kMR; ++r) acc[kMR + r] += hi[r] * b;
  }
#pragma GCC unroll 12
  for (index_t r = 0; r < kTileRows; ++r)
    *reinterpret_cast<vec8_u*>(c + r * ldc) = acc[r];
}

}  // namespace oasis::tensor::gemm::detail

#else  // not x86-64 with AVX-512F: wide_kernel_available() is false.

#include <cstdlib>

namespace oasis::tensor::gemm::detail {

bool wide_kernel_available() { return false; }

void kernel_tile12(index_t, const real*, const real*, real*, index_t) {
  std::abort();
}

}  // namespace oasis::tensor::gemm::detail

#endif

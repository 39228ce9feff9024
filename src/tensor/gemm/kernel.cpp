// The 6×8 register kernel (kernels.h). On x86-64 this TU is compiled with
// -mavx2 -mfma regardless of the build's baseline -march (see
// src/tensor/CMakeLists.txt) and runs only after the cpuid check in
// kernel_available() passed; on AArch64 FMA is baseline. Wherever the
// compiler cannot promise a fused multiply-add (__FP_FAST_FMA undefined)
// the kernel is absent and `blocked` runs the naive oracle instead. On an
// AVX-512 host the drivers hand full pairs of row panels to the 12×8 tile
// in kernel_wide.cpp, the same row kernel at twice the vector width; this
// one keeps single panels, ragged rows and column-ragged tiles.
//
// Tile geometry: 6×8 doubles — twelve 4-lane accumulators plus two packed-B
// vectors and one broadcast, 15 of the 16 ymm registers, the widest tile
// that leaves the register allocator a scratch register. The k-loop body is
// one broadcast and two `acc += a * b` per row. Written with GCC vector
// extensions rather than intrinsics: -ffp-contract=fast contracts each
// `+=` to a single-rounded vfmadd, so every output element advances
// through exactly the FMA chain the oracle spells with std::fma. Do not
// spell std::fma here: the contracted form is what stays in registers.
//
// Ragged edges: the kernel is templated on the live row count, so a 2-row
// edge issues 2 rows of FMAs, not 6. A column-ragged tile is staged: the
// live corner of C is copied into a zero-padded 6×8 stack tile, the row
// kernel runs on it, and the live corner is copied back. Staging changes no
// bits, for the same reason the full tile matches the oracle.
#include "tensor/gemm/kernels.h"

#if defined(__FP_FAST_FMA)

namespace oasis::tensor::gemm::detail {
namespace {

// Four doubles: one ymm register on x86-64, a pair of q registers on
// AArch64. `vec4_u` is the same vector at double alignment, aliasing
// double, to load and store C and the packed panels in place.
typedef double vec4 __attribute__((vector_size(32)));
typedef double vec4_u
    __attribute__((vector_size(32), aligned(8), may_alias));
static_assert(kNR == 2 * 4, "one tile row is two vec4 accumulators");

vec4_u* at(real* p) { return reinterpret_cast<vec4_u*>(p); }
const vec4_u* at(const real* p) { return reinterpret_cast<const vec4_u*>(p); }

using RowKernel = void (*)(index_t kc, const real* ap, const real* bp,
                           real* c, index_t ldc);

/// Updates the first R rows of the 6×8 tile (packed-A stride stays kMR);
/// R = kMR is the full tile.
template <index_t R>
void rows(index_t kc, const real* __restrict ap, const real* __restrict bp,
          real* __restrict c, index_t ldc) {
  // Unrolled so the accumulators live in registers across the k loop, not
  // in a stack copy of the array.
  vec4 acc[R][2];
#pragma GCC unroll 6
  for (index_t r = 0; r < R; ++r) {
    acc[r][0] = at(c + r * ldc)[0];
    acc[r][1] = at(c + r * ldc)[1];
  }
  for (index_t kk = 0; kk < kc; ++kk) {
    const vec4 b0 = at(bp + kk * kNR)[0];
    const vec4 b1 = at(bp + kk * kNR)[1];
    const real* __restrict arow = ap + kk * kMR;
    for (index_t r = 0; r < R; ++r) {
      acc[r][0] += arow[r] * b0;
      acc[r][1] += arow[r] * b1;
    }
  }
#pragma GCC unroll 6
  for (index_t r = 0; r < R; ++r) {
    at(c + r * ldc)[0] = acc[r][0];
    at(c + r * ldc)[1] = acc[r][1];
  }
}

// Indexed by live row count; entry 0 is never called (a tile has ≥1 row).
constexpr RowKernel kRows[kMR + 1] = {nullptr, rows<1>, rows<2>, rows<3>,
                                      rows<4>,  rows<5>, rows<6>};

bool cpu_runs_kernel() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return true;
#endif
}

}  // namespace

bool kernel_available() {
  static const bool available = cpu_runs_kernel();
  return available;
}

void kernel_tile(index_t kc, const real* ap, const real* bp, real* c,
                 index_t ldc, index_t mr, index_t nr) {
  // A column-complete tile needs no staging: the row kernel for mr rows
  // writes exactly the live part of C.
  if (nr == kNR) return kRows[mr](kc, ap, bp, c, ldc);
  alignas(64) real tile[kMR * kNR] = {};
  for (index_t r = 0; r < mr; ++r)
    for (index_t j = 0; j < nr; ++j) tile[r * kNR + j] = c[r * ldc + j];
  kRows[mr](kc, ap, bp, tile, kNR);
  for (index_t r = 0; r < mr; ++r)
    for (index_t j = 0; j < nr; ++j) c[r * ldc + j] = tile[r * kNR + j];
}

}  // namespace oasis::tensor::gemm::detail

#else  // no fused multiply-add: no kernel; `blocked` never calls it.

#include <cstdlib>

namespace oasis::tensor::gemm::detail {

bool kernel_available() { return false; }

void kernel_tile(index_t, const real*, const real*, real*, index_t, index_t,
                 index_t) {
  std::abort();
}

}  // namespace oasis::tensor::gemm::detail

#endif

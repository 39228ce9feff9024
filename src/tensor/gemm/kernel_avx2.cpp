// AVX2+FMA microkernels (x86-64). This TU is compiled with -mavx2 -mfma
// regardless of the build's baseline -march (see src/tensor/CMakeLists.txt);
// nothing here runs unless the cpuid check in avx2_supported() passed, so a
// non-AVX2 host never executes these instructions.
//
// Tile geometry: 6×8 doubles — twelve ymm accumulators plus two packed-B
// vectors and one broadcast, 15 of the 16 ymm registers, the widest tile
// that leaves the register allocator a scratch register. The k-loop body is one broadcast + two vfmadd231 per row: every output element
// advances through exactly the single-rounded FMA chain the scalar kernels
// contract to, so the bits match the naive oracle (kernels.h).
//
// Ragged edges run through staged_edge (kernels.h): the live corner of C is
// staged into a zero-padded 6×8 stack tile and the register kernel
// instantiated for exactly the live row count runs on it, so a 2-row edge
// issues 2 rows of FMAs, not 6. The staging changes no bits, for the same
// reason the full kernels match the oracle. Edges do not go to generic_tile,
// even compiled here with AVX2 enabled: measured, it runs ~3× slower than
// the register kernel, which made the AVX2 dispatch lose to scalar on the
// round's conv GEMMs, whose m = 8, 16, 27, 72 leave most row panels ragged.
#include "tensor/gemm/kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace oasis::tensor::gemm::detail {
namespace {

constexpr index_t kAvxMR = 6, kAvxNR = 8;

/// Updates the first R rows of the 6×8 tile (packed-A stride stays kAvxMR);
/// R = kAvxMR is the full kernel.
template <index_t R>
void avx2_rows(index_t kc, const double* __restrict ap,
               const double* __restrict bp, double* __restrict c,
               index_t ldc) {
  __m256d acc[R][2];
  for (index_t r = 0; r < R; ++r) {
    acc[r][0] = _mm256_loadu_pd(c + r * ldc);
    acc[r][1] = _mm256_loadu_pd(c + r * ldc + 4);
  }
  for (index_t kk = 0; kk < kc; ++kk) {
    const __m256d b0 = _mm256_loadu_pd(bp + kk * kAvxNR);
    const __m256d b1 = _mm256_loadu_pd(bp + kk * kAvxNR + 4);
    const double* __restrict arow = ap + kk * kAvxMR;
    for (index_t r = 0; r < R; ++r) {
      const __m256d av = _mm256_set1_pd(arow[r]);
      acc[r][0] = _mm256_fmadd_pd(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_pd(av, b1, acc[r][1]);
    }
  }
  for (index_t r = 0; r < R; ++r) {
    _mm256_storeu_pd(c + r * ldc, acc[r][0]);
    _mm256_storeu_pd(c + r * ldc + 4, acc[r][1]);
  }
}

// Indexed by live row count; entry 0 is never called (a tile has ≥1 row).
constexpr TileKernel kAvxRows[kAvxMR + 1] = {
    nullptr,      avx2_rows<1>, avx2_rows<2>, avx2_rows<3>,
    avx2_rows<4>, avx2_rows<5>, avx2_rows<6>};

// A column-complete edge needs no staging: the row kernel for mr rows
// writes exactly the live part of C.
void avx2_edge(index_t kc, const double* ap, const double* bp, double* c,
               index_t ldc, index_t mr, index_t nr) {
  if (nr == kAvxNR) return kAvxRows[mr](kc, ap, bp, c, ldc);
  staged_edge<kAvxMR, kAvxNR>(kAvxRows[mr], kc, ap, bp, c, ldc, mr, nr);
}

}  // namespace

bool avx2_compiled() { return true; }

bool avx2_supported() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

MicroKernel avx2_kernel() {
  return {avx2_rows<kAvxMR>, avx2_edge, kAvxMR, kAvxNR};
}

}  // namespace oasis::tensor::gemm::detail

#else  // non-x86: stubs so the dispatch table links everywhere.

namespace oasis::tensor::gemm::detail {

bool avx2_compiled() { return false; }
bool avx2_supported() { return false; }
MicroKernel avx2_kernel() { return {nullptr, nullptr, 0, 0}; }

}  // namespace oasis::tensor::gemm::detail

#endif

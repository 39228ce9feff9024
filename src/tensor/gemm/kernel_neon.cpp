// NEON microkernels (AArch64, where Advanced SIMD is baseline — no extra
// compile flags or runtime feature check needed; neon_compiled() doubles as
// neon-supported).
//
// Tile geometry mirrors the AVX2 kernel at the same MR so the packed-A
// layout math is identical: 6×8 doubles (24 of the 32 128-bit vector
// registers as accumulators, 4 packed-B vectors, 1 broadcast). vfmaq_n_f64
// is a single-rounded fused multiply-add per lane — the same IEEE operation
// the scalar kernels contract to — so the bits match the naive oracle
// (kernels.h).
#include "tensor/gemm/kernels.h"

#if defined(__aarch64__) || defined(__ARM_NEON)

#include <arm_neon.h>

namespace oasis::tensor::gemm::detail {
namespace {

constexpr index_t kNeonMRF64 = 6, kNeonNRF64 = 8;

void neon_full_f64(index_t kc, const double* __restrict ap,
                   const double* __restrict bp, double* __restrict c,
                   index_t ldc) {
  float64x2_t acc[kNeonMRF64][4];
  for (index_t r = 0; r < kNeonMRF64; ++r)
    for (index_t v = 0; v < 4; ++v) acc[r][v] = vld1q_f64(c + r * ldc + 2 * v);
  for (index_t kk = 0; kk < kc; ++kk) {
    float64x2_t b[4];
    for (index_t v = 0; v < 4; ++v) b[v] = vld1q_f64(bp + kk * kNeonNRF64 + 2 * v);
    const double* __restrict arow = ap + kk * kNeonMRF64;
    for (index_t r = 0; r < kNeonMRF64; ++r) {
      const double av = arow[r];
      for (index_t v = 0; v < 4; ++v) acc[r][v] = vfmaq_n_f64(acc[r][v], b[v], av);
    }
  }
  for (index_t r = 0; r < kNeonMRF64; ++r)
    for (index_t v = 0; v < 4; ++v) vst1q_f64(c + r * ldc + 2 * v, acc[r][v]);
}

}  // namespace

bool neon_compiled() { return true; }

MicroKernel neon_kernel() {
  return {neon_full_f64, generic_tile<kNeonMRF64, kNeonNRF64>, kNeonMRF64,
          kNeonNRF64};
}

}  // namespace oasis::tensor::gemm::detail

#else  // non-ARM: stubs so the dispatch table links everywhere.

namespace oasis::tensor::gemm::detail {

bool neon_compiled() { return false; }
MicroKernel neon_kernel() { return {nullptr, nullptr, 0, 0}; }

}  // namespace oasis::tensor::gemm::detail

#endif

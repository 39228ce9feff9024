// Internal microkernel family for the blocked GEMM driver (gemm.cpp).
//
// A MicroKernel bundles one ISA's register-tiled kernel: `full`
// computes a complete MR×NR tile of C += Ap·Bp from packed panels, `edge`
// the ragged clip of one (padded packs, full-tile arithmetic in registers,
// clipped store), and (mr, nr) the tile geometry the driver packs for.
//
// Bit-identity across the family rests on one invariant every kernel obeys:
// each output element advances through an ascending-k chain of
// single-rounded fused multiply-adds seeded from the C tile. The scalar
// kernels get the FMA from -ffp-contract=fast (pinned in
// src/tensor/CMakeLists.txt; the independent-accumulator loop shape below is
// exactly the one GCC contracts — see the comment in generic_tile); the SIMD
// kernels spell vfmadd explicitly. A vector FMA lane and a contracted scalar
// FMA are the same IEEE operation, so tile geometry, ISA, and full-vs-edge
// routing never change the bits.
#pragma once

#include "common/types.h"

namespace oasis::tensor::gemm::detail {

/// A register kernel over packed panels: C += Ap·Bp on one tile, with packed
/// strides mr/nr and C row stride ldc.
using TileKernel = void (*)(index_t kc, const real* ap, const real* bp,
                            real* c, index_t ldc);

struct MicroKernel {
  /// Full MR×NR tile: C[0..mr)×[0..nr) += Ap·Bp with packed strides mr/nr.
  TileKernel full;
  /// Ragged tile: same arithmetic over the zero-padded pack, storing only
  /// the live mr×nr corner.
  void (*edge)(index_t kc, const real* ap, const real* bp, real* c,
               index_t ldc, index_t mr, index_t nr);
  index_t mr, nr;
};

// ---- Generic (scalar / auto-vectorized) tiles -------------------------------
//
// The portable kernel, full and edge alike. Each acc[r][j] advances one
// fused multiply-add per k step, in ascending k order. The `+=` form is
// deliberate: under -ffp-contract=fast it contracts to a single-rounded FMA,
// exactly the operation the naive kernels execute per element, AND it
// vectorizes to broadcast+vfmadd across the NR lanes.
// Writing std::fma explicitly here de-vectorizes the loop (~4.5x slower),
// and manual unrolling makes it fall back to scalar shuffles (~5x slower) —
// keep the plain triple loop.

template <index_t MR, index_t NR>
void generic_tile(index_t kc, const real* __restrict ap,
                  const real* __restrict bp, real* __restrict c, index_t ldc,
                  index_t mr, index_t nr) {
  real acc[MR][NR];
  const bool full = (mr == MR) & (nr == NR);
  if (full) {
    for (index_t r = 0; r < MR; ++r)
      for (index_t j = 0; j < NR; ++j) acc[r][j] = c[r * ldc + j];
  } else {
    for (index_t r = 0; r < MR; ++r)
      for (index_t j = 0; j < NR; ++j)
        acc[r][j] = (r < mr && j < nr) ? c[r * ldc + j] : real(0);
  }
  for (index_t kk = 0; kk < kc; ++kk) {
    const real* __restrict arow = ap + kk * MR;
    const real* __restrict brow = bp + kk * NR;
    for (index_t r = 0; r < MR; ++r) {
      const real av = arow[r];
      for (index_t j = 0; j < NR; ++j) acc[r][j] += av * brow[j];
    }
  }
  if (full) {
    for (index_t r = 0; r < MR; ++r)
      for (index_t j = 0; j < NR; ++j) c[r * ldc + j] = acc[r][j];
  } else {
    for (index_t r = 0; r < mr; ++r)
      for (index_t j = 0; j < nr; ++j) c[r * ldc + j] = acc[r][j];
  }
}

template <index_t MR, index_t NR>
void generic_full(index_t kc, const real* ap, const real* bp, real* c,
                  index_t ldc) {
  generic_tile<MR, NR>(kc, ap, bp, c, ldc, MR, NR);
}

// ---- Staged edge (the SIMD kernels' ragged-tile handler) --------------------
//
// Copies the live mr×nr corner of C into a zero-padded MR×NR stack tile,
// runs a register kernel on it with ldc = NR, and copies the live corner
// back. `kernel` may be the ISA's full MR×NR kernel or a variant that only
// updates the tile's first mr rows (same packed-A stride MR), which skips the
// FMAs of the padded rows. The packs are already zero-padded to MR rows and
// NR columns, so each live element advances through exactly the ascending-k
// single-rounded FMA chain, seeded from its own C value, that the full path
// and the naive oracle run; padded lanes only compute values that are thrown
// away. A ragged tile thus costs one register-kernel pass plus two small
// copies. Routing it to generic_tile instead ran ~3× slower than the register
// kernel on the round's conv shapes, where m = 8, 16, 27 and 72 leave most
// row panels ragged.

template <index_t MR, index_t NR>
void staged_edge(TileKernel kernel, index_t kc, const real* ap,
                 const real* bp, real* c, index_t ldc, index_t mr,
                 index_t nr) {
  alignas(64) real tile[MR * NR] = {};
  for (index_t r = 0; r < mr; ++r)
    for (index_t j = 0; j < nr; ++j) tile[r * NR + j] = c[r * ldc + j];
  kernel(kc, ap, bp, tile, NR);
  for (index_t r = 0; r < mr; ++r)
    for (index_t j = 0; j < nr; ++j) c[r * ldc + j] = tile[r * NR + j];
}

/// The scalar-ISA kernel: the pre-dispatch 4×8 tile (the geometry the
/// golden fixture was recorded under — not that geometry matters for the
/// bits, but it keeps the scalar path's cache behavior unchanged).
MicroKernel scalar_kernel();

// ---- AVX2+FMA kernels (kernel_avx2.cpp, compiled with -mavx2 -mfma) ---------
//
// Always declared; on non-x86 builds the TU compiles stubs with
// avx2_compiled() == false and null kernels. avx2_supported() performs the
// runtime cpuid feature check (AVX2 and FMA).
bool avx2_compiled();
bool avx2_supported();
MicroKernel avx2_kernel();

// ---- NEON kernels (kernel_neon.cpp, baseline on AArch64) --------------------
bool neon_compiled();
MicroKernel neon_kernel();

}  // namespace oasis::tensor::gemm::detail

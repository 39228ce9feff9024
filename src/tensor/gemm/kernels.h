// Internal register kernels for the blocked GEMM driver (gemm.cpp).
//
// One kernel template, two instantiations, written with GCC vector
// extensions: the 6×8 tile of doubles in kernel.cpp (its TU has FMA enabled
// in every build, whatever the baseline -march: x86-64 -mavx2 -mfma behind
// one cached cpuid check, AArch64 baseline) and the 12×8 tile in
// kernel_wide.cpp (x86-64 only: -mavx512f, behind a second cached cpuid
// check). The wide tile reads two adjacent 6-row packed-A panels, so the
// packed layout (kMR = 6, kNR = 8) is the same for both. Under the pinned
// -ffp-contract=fast each `acc += a * b` contracts to a single-rounded
// fused multiply-add, so every output element advances through the
// ascending-k FMA chain, seeded from C, that the naive oracle spells with
// std::fma: blocked and naive agree bit for bit whichever tile runs, and
// neither depends on the build's -march.
#pragma once

#include "common/types.h"
#include "tensor/gemm/gemm.h"

namespace oasis::tensor::gemm::detail {

/// Packs op(B)[pc..pc+kc, jc..jc+nc) of a k×n op(B) (B stored k×n for NN
/// and TN, n×k for NT) into kNR-wide k-major micro-panels at bp, the
/// layout gemm.h documents for packed B, zero-padding the ragged last
/// panel to kNR columns. The blocked driver's pack, one (pc, jc) block at
/// a time; gemm::pack_b is the whole-matrix call.
void pack_b(Variant v, const real* b, index_t k, index_t n, index_t pc,
            index_t kc, index_t jc, index_t nc, real* bp);

/// True when the 6×8 kernel was compiled (the FMA TU defines __FP_FAST_FMA)
/// and the running CPU executes it. Resolved once. When false, `blocked`
/// runs the naive oracle, which computes the same bytes.
bool kernel_available();

/// True when kernel_available() and the running CPU also executes the 12×8
/// tile (x86-64 with AVX-512F). Resolved once. Always false off x86-64,
/// where kernel_wide.cpp is a stub.
bool wide_kernel_available();

/// C[0..mr)×[0..nr) += Ap·Bp over kc packed steps (A stride kMR, B stride
/// kNR, both zero-padded; the tile geometry is in gemm.h), with C row
/// stride ldc. Only call when kernel_available().
void kernel_tile(index_t kc, const real* ap, const real* bp, real* c,
                 index_t ldc, index_t mr, index_t nr);

/// The full 12×8 tile: C[0..12)×[0..kNR) += Ap·Bp, where the 12 rows are
/// two adjacent packed-A panels (rows 0..5 at ap, rows 6..11 at
/// ap + kc·kMR). Ragged rows and columns stay with kernel_tile. Only call
/// when wide_kernel_available().
void kernel_tile12(index_t kc, const real* ap, const real* bp, real* c,
                   index_t ldc);

}  // namespace oasis::tensor::gemm::detail

// Internal register kernel for the blocked GEMM driver (gemm.cpp).
//
// One kernel, one tile geometry: MR×NR = 6×8 doubles, written with GCC
// vector extensions in kernel.cpp. That TU has FMA enabled in every build,
// whatever the baseline -march (x86-64: -mavx2 -mfma, behind one cached
// cpuid check; AArch64: baseline), so its `acc += a * b` contracts to a
// single-rounded fused multiply-add under the pinned -ffp-contract=fast.
// Each output element then advances through the ascending-k FMA chain,
// seeded from C, that the naive oracle spells with std::fma — so blocked
// and naive agree bit for bit, and neither depends on the build's -march.
#pragma once

#include "common/types.h"
#include "tensor/gemm/gemm.h"

namespace oasis::tensor::gemm::detail {

/// True when the kernel was compiled (the FMA TU defines __FP_FAST_FMA) and
/// the running CPU executes it. Resolved once. When false, `blocked` runs
/// the naive oracle, which computes the same bytes.
bool kernel_available();

/// C[0..mr)×[0..nr) += Ap·Bp over kc packed steps (A stride kMR, B stride
/// kNR, both zero-padded; the tile geometry is in gemm.h), with C row
/// stride ldc. Only call when kernel_available().
void kernel_tile(index_t kc, const real* ap, const real* bp, real* c,
                 index_t ldc, index_t mr, index_t nr);

}  // namespace oasis::tensor::gemm::detail

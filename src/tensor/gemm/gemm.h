// Blocked + packed GEMM (the hot path of every bench and training loop) over
// `real` (double), built on one register-kernel template in two tile
// widths (6×8, and 12×8 over pairs of 6-row panels where the CPU has
// AVX-512F), with the old naive triple-loop kernels retained as the
// differential-test oracle and as the fallback where no kernel can run.
//
// All entry points compute C += op(A)·op(B) on dense row-major buffers (the
// accumulate convention every call site relies on: wrappers hand in
// zero-initialized C, Conv2d hands in zeroed workspace tiles). Double is the
// only dtype: the attack/PSNR 130–145 dB verbatim-copy signature needs
// ~1e-15 relative error (see common/types.h).
//
// Determinism contract (DESIGN.md §5f/§5k): for every output element the
// k-accumulation runs in ascending k order through a single chain of
// single-rounded fused multiply-adds — the blocked path's register tiles
// load the partial result from C and continue the same FMA chain the naive
// kernels spell with std::fma, and memory round-trips are exact — so
// blocked and naive results are bit-identical, at any thread count, on any
// host and under any -march, and the golden fixture is preserved
// byte-for-byte. The documented exceptions come from the naive NN and TN
// kernels skipping terms whose op(A) value is exactly 0.0: the sign of zero
// when an entire op(A) column is 0.0 (+0.0 vs -0.0 compare equal), and an
// Inf or NaN of op(B) facing such a zero, which the register kernel turns
// into NaN (0·Inf) and the oracle skips. Neither arises from finite
// continuous data.
#pragma once

#include "common/types.h"

namespace oasis::tensor::gemm {

/// Which operand is logically transposed. Row-major storage throughout:
///   NN: A is m×k, B is k×n.
///   TN: A is k×m (op(A)=Aᵀ), B is k×n — weight gradients, no transpose copy.
///   NT: A is m×k, B is n×k (op(B)=Bᵀ) — input gradients, no transpose copy.
enum class Variant { NN, TN, NT };

/// Register-tile geometry (kernels.h, DESIGN.md §5k), and so the panel
/// layout of a packed operand: packed A interleaves kMR rows per k step,
/// packed B holds kNR columns per k step. The 12×8 tile reads two adjacent
/// A panels, so it needs no layout of its own.
inline constexpr index_t kMR = 6;
inline constexpr index_t kNR = 8;

// Cache blocking parameters: k blocked by KC (one packed B micro-panel
// stays L1-resident: 256·8 doubles·8 B = 16 KiB), n blocked by NC (the full
// packed B block, ≤ 1 MiB, L2-resident on the target Xeon with its 2 MiB
// L2). The register-tile geometry (6×8, or 12×8 over two panels) is in
// kernels.h / DESIGN.md §5k; packing pads ragged edges to the 6×8 panels.
inline constexpr index_t kKC = 256;
inline constexpr index_t kNC = 512;

/// Flops of C(m×n) += op(A)·op(B): a multiply and an add per term. The one
/// count the parallel cutoff, the naive oracle and kernel.gemm.flops share.
constexpr index_t flops(index_t m, index_t k, index_t n) {
  return 2 * m * k * n;
}

/// Below this many flops a GEMM runs its row panels inline on the calling
/// thread (both paths): a parallel_for dispatch plus the serial B pack cost
/// more than the split saves, and the callers of the small products (the
/// per-sample conv GEMMs) already run one sample per pool task. The cutoff
/// moves only the row partition, never the bits. DESIGN.md §5k has the
/// thread-sweep rows it rests on.
inline constexpr index_t kParallelGemmFlops = index_t{1} << 20;

// ---- Oracle switch ----------------------------------------------------------

/// True when the naive oracle kernels are active — either forced via the
/// OASIS_NAIVE_GEMM=1 environment variable (read once) or toggled with
/// set_naive(). Toggle only between parallel regions.
bool naive_active();
void set_naive(bool on);

// ---- Entry points -----------------------------------------------------------

/// C(m×n) += op(A)·op(B). Dispatches naive/blocked per naive_active() and
/// bumps the kernel.gemm.* flop counters (when kernel metrics are enabled).
/// Parallelizes over row panels of C via runtime::parallel_for with
/// shape-derived chunking; small products run inline.
void run(Variant v, index_t m, index_t k, index_t n, const real* a,
         const real* b, real* c);

/// Direct entries (no naive/blocked dispatch, no metrics) for the
/// differential tests and benches. `blocked` runs the naive oracle where the
/// register kernel is absent or the CPU lacks FMA.
void blocked(Variant v, index_t m, index_t k, index_t n, const real* a,
             const real* b, real* c);
void naive(Variant v, index_t m, index_t k, index_t n, const real* a,
           const real* b, real* c);

// ---- Packed operands --------------------------------------------------------
//
// A caller that can write an operand straight into the panel layout (the
// conv lowering, DESIGN.md §5k) skips the driver's pack copy. Packed A of an
// m×k matrix is ceil(m/kMR) panels of k·kMR values: A[q·kMR + r][kk] sits at
// ap[(q·k + kk)·kMR + r], rows past m zero. Packed B of a k×n matrix is
// ceil(n/kNR) panels of k·kNR values: B[kk][p·kNR + j] sits at
// bp[(p·k + kk)·kNR + j], columns past n zero.

constexpr index_t packed_a_size(index_t m, index_t k) {
  return (m + kMR - 1) / kMR * kMR * k;
}
constexpr index_t packed_b_size(index_t k, index_t n) {
  return (n + kNR - 1) / kNR * kNR * k;
}

/// Packs all of op(B) (k×n; B stored k×n for NN/TN, n×k for NT) into bp.
void pack_b(Variant v, index_t k, index_t n, const real* b, real* bp);

/// C(m×n, row-major) += A·B from packed operands: run()'s contract and
/// bytes (one kernel.gemm call of flops(m, k, n); the naive oracle, on the
/// unpacked operands, when naive_active() or where the register kernel
/// cannot run), with no packing, no k or n blocking and no row split: it
/// runs on the calling thread, so each packed operand should stay
/// cache-sized and the caller parallelizes over products. The oracle here
/// is the NT chain, which skips no term, so the zero-skip exception above
/// does not apply: both paths give the same bytes on every input, Inf and
/// NaN included.
void run_packed(index_t m, index_t k, index_t n, const real* ap,
                const real* bp, real* c);

}  // namespace oasis::tensor::gemm

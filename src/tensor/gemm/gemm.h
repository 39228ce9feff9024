// Blocked + packed GEMM kernel family (the hot path of every bench and
// training loop) over `real` (double), dispatched across a runtime-selected
// SIMD microkernel family, with the old naive triple-loop kernels retained
// as the differential-test oracle.
//
// All entry points compute C += op(A)·op(B) on dense row-major buffers (the
// accumulate convention every call site relies on: wrappers hand in
// zero-initialized C, Conv2d hands in zeroed workspace tiles). Double is the
// only dtype: the attack/PSNR 130–145 dB verbatim-copy signature needs
// ~1e-15 relative error (see common/types.h).
//
// Determinism contract (DESIGN.md §5f/§5k): per ISA, for every output
// element the k-accumulation runs in ascending k order through a single
// chain of single-rounded fused multiply-adds — the blocked path's register
// tiles load the partial result from C and continue the same FMA chain the
// naive kernels execute, and memory round-trips are exact — so blocked and
// naive results are bit-identical, at any thread count and any
// register-tile geometry, and the golden fixture is preserved byte-for-byte.
// Because a vector FMA lane performs the identical IEEE operation the scalar
// contraction does, the contract in fact holds ACROSS ISAs too; the tests
// pin it per ISA since that is what the dispatch guarantees. The one
// documented exception is the sign of zero when an entire op(A) column is
// exactly 0.0 (the naive kernels skip those terms): +0.0 vs -0.0 compare
// equal and cannot arise from continuous data.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace oasis::tensor::gemm {

/// Which operand is logically transposed. Row-major storage throughout:
///   NN: A is m×k, B is k×n.
///   TN: A is k×m (op(A)=Aᵀ), B is k×n — weight gradients, no transpose copy.
///   NT: A is m×k, B is n×k (op(B)=Bᵀ) — input gradients, no transpose copy.
enum class Variant { NN, TN, NT };

// Cache blocking parameters, shared by every ISA kernel: k blocked by KC
// (one packed B micro-panel stays L1-resident: 256·8 doubles·8 B = 16 KiB),
// n blocked by NC (the full packed B block, ≤ 1 MiB, L2-resident on the
// target Xeon with its 2 MiB L2). The register-tile geometry (MR×NR) is
// per ISA — see kernels.h / DESIGN.md §5k — chosen so the accumulator tile
// fills the ISA's vector register file; packing pads ragged edges to the
// active kernel's tile.
inline constexpr index_t kKC = 256;
inline constexpr index_t kNC = 512;

// ---- SIMD microkernel dispatch ----------------------------------------------

/// Instruction-set families the microkernels are specialized for. kScalar is
/// the portable fallback (plain C++, auto-vectorized under the build's
/// -march flags) and is always compiled; kAvx2 (AVX2+FMA ymm kernels) is
/// compiled on x86-64 and selected when the CPU reports the features; kNeon
/// is compiled on AArch64 where it is baseline.
enum class Isa { kScalar, kAvx2, kNeon };

/// Lower-case stable name ("scalar" | "avx2" | "neon") — the vocabulary of
/// the OASIS_GEMM_ISA environment variable and the bench/CI output.
const char* isa_name(Isa isa);

/// Parses an isa_name (case-sensitive); nullopt for unknown strings.
std::optional<Isa> parse_isa(std::string_view name);

/// True when the kernels for `isa` were compiled into this binary.
bool isa_compiled(Isa isa);

/// True when `isa` was compiled AND the running CPU supports it — i.e.
/// set_isa(isa) would succeed. kScalar is always available.
bool isa_available(Isa isa);

/// Every ISA usable on this host, kScalar first — the sweep axis the
/// differential tests and benches iterate so each compiled kernel variant is
/// exercised on one machine.
std::vector<Isa> available_isas();

/// The ISA the blocked kernels currently dispatch to. First call resolves
/// the OASIS_GEMM_ISA environment variable (scalar|avx2|neon; read once) and
/// falls back — with a one-time stderr note — to the best available ISA when
/// the variable is unset, unknown, or names an ISA this host cannot run.
Isa active_isa();

/// Forces dispatch to `isa` for subsequent GEMMs (tests/benches sweeping the
/// kernel family). Throws Error when !isa_available(isa). Toggle only
/// between parallel regions.
void set_isa(Isa isa);

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
/// differential tests and benches. `blocked` still honors active_isa().
void blocked(Variant v, index_t m, index_t k, index_t n, const real* a,
             const real* b, real* c);
void naive(Variant v, index_t m, index_t k, index_t n, const real* a,
           const real* b, real* c);

}  // namespace oasis::tensor::gemm

#include "tensor/gemm/gemm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>

#include "obs/obs.h"
#include "runtime/parallel.h"
#include "runtime/workspace.h"
#include "tensor/gemm/kernels.h"
#include "tensor/ops.h"

namespace oasis::tensor::gemm {
namespace {

index_t ceil_div(index_t a, index_t b) { return (a + b - 1) / b; }

}  // namespace

// ---- Packing ----------------------------------------------------------------
//
// Pack strides follow the register tile (kMR/kNR). Packing only copies — it
// never touches the arithmetic — so the tile geometry is invisible in the
// output bits.

void detail::pack_b(Variant v, const real* __restrict b, index_t k, index_t n,
                    index_t pc, index_t kc, index_t jc, index_t nc,
                    real* __restrict bp) {
  const index_t panels = ceil_div(nc, kNR);
  for (index_t p = 0; p < panels; ++p) {
    const index_t j0 = p * kNR;
    const index_t w = std::min(kNR, nc - j0);
    real* __restrict dst = bp + p * kc * kNR;
    if (v == Variant::NT) {
      // op(B)[kk, j] = B[jc+j, pc+kk] with B stored n×k: the panel is the
      // transpose of w rows of B, 4×4 blocks of it in registers.
      transpose_block(b + (jc + j0) * k + pc, w, kc, k, dst, kNR);
      if (w < kNR) {
        for (index_t kk = 0; kk < kc; ++kk)
          for (index_t j = w; j < kNR; ++j) dst[kk * kNR + j] = 0.0;
      }
    } else {
      // op(B)[kk, j] = B[pc+kk, jc+j] with B stored k×n (NN and TN share B).
      for (index_t kk = 0; kk < kc; ++kk) {
        const real* __restrict src = b + (pc + kk) * n + jc + j0;
        real* __restrict row = dst + kk * kNR;
        for (index_t j = 0; j < w; ++j) row[j] = src[j];
        for (index_t j = w; j < kNR; ++j) row[j] = 0.0;
      }
    }
  }
}

namespace {

/// Packs op(A)[i0..i0+mr, pc..pc+kc) k-major with kMR rows interleaved,
/// zero-padding ragged rows to kMR.
void pack_a(Variant v, const real* __restrict a, index_t m, index_t k,
            index_t i0, index_t mr, index_t pc, index_t kc,
            real* __restrict ap) {
  if (v == Variant::TN) {
    // op(A)[i, kk] = A[pc+kk, i0+i] with A stored k×m.
    for (index_t kk = 0; kk < kc; ++kk) {
      const real* __restrict src = a + (pc + kk) * m + i0;
      real* __restrict dst = ap + kk * kMR;
      for (index_t r = 0; r < mr; ++r) dst[r] = src[r];
      for (index_t r = mr; r < kMR; ++r) dst[r] = 0.0;
    }
  } else {
    // op(A)[i, kk] = A[i0+i, pc+kk] with A stored m×k (NN and NT share A).
    for (index_t kk = 0; kk < kc; ++kk) {
      real* __restrict dst = ap + kk * kMR;
      for (index_t r = 0; r < mr; ++r) dst[r] = a[(i0 + r) * k + pc + kk];
      for (index_t r = mr; r < kMR; ++r) dst[r] = 0.0;
    }
  }
}

// ---- Naive oracle kernels (the pre-blocking triple loops) -------------------
//
// Every multiply-add is a spelled std::fma, so the oracle's bytes never hang
// on whether the build contracts `+=`: under -mfma (or on AArch64) GCC emits
// the same vectorized vfmadd loop for both spellings, and elsewhere libm's
// fma rounds once too.

// Output rows are written disjointly and each row's k-accumulation order is
// fixed, so row-parallel GEMMs are bit-identical at any thread count.
void for_each_output_row(index_t m, index_t k, index_t n,
                         const std::function<void(index_t, index_t)>& body) {
  if (flops(m, k, n) < kParallelGemmFlops) {
    body(0, m);
    return;
  }
  runtime::parallel_for(0, m, body);
}

void naive_nn(index_t m, index_t k, index_t n, const real* a, const real* b,
              real* c) {
  for_each_output_row(m, k, n, [&](index_t i0, index_t i1) {
    for (index_t i = i0; i < i1; ++i) {
      const real* arow = a + i * k;
      real* crow = c + i * n;
      for (index_t kk = 0; kk < k; ++kk) {
        const real av = arow[kk];
        if (av == 0.0) continue;
        const real* brow = b + kk * n;
        for (index_t j = 0; j < n; ++j)
          crow[j] = std::fma(av, brow[j], crow[j]);
      }
    }
  });
}

void naive_tn(index_t m, index_t k, index_t n, const real* a, const real* b,
              real* c) {
  // c[i,j] += Σ_kk a[kk,i] * b[kk,j]; iterate kk outermost so both reads are
  // row-contiguous. Each parallel chunk owns output rows [i0, i1) and runs
  // the full kk sweep over them, so per-element accumulation order is the
  // serial one.
  for_each_output_row(m, k, n, [&](index_t i0, index_t i1) {
    for (index_t kk = 0; kk < k; ++kk) {
      const real* arow = a + kk * m;
      const real* brow = b + kk * n;
      for (index_t i = i0; i < i1; ++i) {
        const real av = arow[i];
        if (av == 0.0) continue;
        real* crow = c + i * n;
        for (index_t j = 0; j < n; ++j)
          crow[j] = std::fma(av, brow[j], crow[j]);
      }
    }
  });
}

void naive_nt(index_t m, index_t k, index_t n, const real* a, const real* b,
              real* c) {
  // c[i,j] += Σ_kk a[i,kk] * b[j,kk]: dot of two contiguous rows. The chain
  // is seeded from c[i,j] (not summed into 0 and added at the end), so every
  // output element advances through the same ascending-k multiply-add
  // sequence as the register kernel. The scalar fma chain cannot vectorize;
  // this is the oracle, not the fast path.
  for_each_output_row(m, k, n, [&](index_t i0, index_t i1) {
    for (index_t i = i0; i < i1; ++i) {
      const real* arow = a + i * k;
      real* crow = c + i * n;
      for (index_t j = 0; j < n; ++j) {
        const real* brow = b + j * k;
        real s = crow[j];
        for (index_t kk = 0; kk < k; ++kk) s = std::fma(arow[kk], brow[kk], s);
        crow[j] = s;
      }
    }
  });
}

// ---- Dispatch state ---------------------------------------------------------

bool env_naive() {
  const char* env = std::getenv("OASIS_NAIVE_GEMM");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::atomic<bool>& naive_flag() {
  static std::atomic<bool> flag{env_naive()};
  return flag;
}

void count_gemm(index_t product_flops) {
  if (!obs::kernel_metrics_enabled()) return;
  static obs::Counter& calls = obs::counter("kernel.gemm.calls");
  static obs::Counter& total = obs::counter("kernel.gemm.flops");
  calls.add(1);
  total.add(static_cast<std::uint64_t>(product_flops));
}

/// C[0..mr)×[0..nr) += Ap·Bp, where the mr ≤ 2·kMR rows span one packed-A
/// panel or two adjacent ones (the second at ap + kc·kMR). A full 12×8 tile
/// runs the wide kernel; anything else runs one 6×8 tile call per panel,
/// ragged rows and columns included. Rows past kMR reach here only when
/// detail::wide_kernel_available().
void tile(index_t kc, const real* ap, const real* bp, real* c, index_t ldc,
          index_t mr, index_t nr) {
  if (mr == 2 * kMR && nr == kNR) {
    return detail::kernel_tile12(kc, ap, bp, c, ldc);
  }
  detail::kernel_tile(kc, ap, bp, c, ldc, std::min(mr, kMR), nr);
  if (mr > kMR) {
    detail::kernel_tile(kc, ap + kc * kMR, bp, c + kMR * ldc, ldc, mr - kMR,
                        nr);
  }
}

/// Row panels per register tile: two where the 12×8 tile runs.
index_t panels_per_tile() {
  return detail::wide_kernel_available() ? 2 : 1;
}

}  // namespace

// ---- Blocked driver ---------------------------------------------------------

void blocked(Variant v, index_t m, index_t k, index_t n, const real* a,
             const real* b, real* c) {
  if (m <= 0 || n <= 0 || k <= 0) return;  // C += empty product
  if (!detail::kernel_available()) return naive(v, m, k, n, a, b, c);
  const index_t row_panels = ceil_div(m, kMR);
  // Shape-derived chunking: aim for ~8 chunks, at most 32 MR-panels per
  // chunk so large GEMMs expose enough parallelism while a chunk's packed A
  // traffic stays L2-friendly. Never depends on the thread count, so the
  // row partition is fixed (the bits would not move with it anyway). The
  // grain is a whole number of tiles, so a chunk holds full pairs of row
  // panels where the 12×8 tile runs, even when m is only a few panels.
  const index_t step = panels_per_tile();
  const index_t chunk = std::max<index_t>(
      1, std::min<index_t>(row_panels / 8, index_t{32}));
  const index_t grain = ceil_div(chunk, step) * step;
  const bool parallel = flops(m, k, n) >= kParallelGemmFlops && row_panels > 1;

  runtime::Workspace& ws = runtime::Workspace::tls();
  runtime::Workspace::Scope scope(ws);
  const index_t nc_max = std::min(n, kNC);
  real* bpack = ws.alloc(kKC * ceil_div(nc_max, kNR) * kNR);

  for (index_t jc = 0; jc < n; jc += kNC) {
    const index_t nc = std::min(kNC, n - jc);
    const index_t b_panels = ceil_div(nc, kNR);
    for (index_t pc = 0; pc < k; pc += kKC) {
      const index_t kc = std::min(kKC, k - pc);
      // B panel packed once, serially, then read-shared by every chunk.
      detail::pack_b(v, b, k, n, pc, kc, jc, nc, bpack);
      // Row panels go to the tile in pairs counted from the chunk's first
      // panel, so a pair never straddles two chunks.
      const auto body = [&](index_t p0, index_t p1) {
        runtime::Workspace& tws = runtime::Workspace::tls();
        runtime::Workspace::Scope tscope(tws);
        real* apack = tws.alloc(step * kKC * kMR);
        for (index_t ip = p0; ip < p1; ip += step) {
          const index_t i0 = ip * kMR;
          const index_t mr = std::min(std::min(step, p1 - ip) * kMR, m - i0);
          for (index_t r = 0; r < mr; r += kMR) {
            pack_a(v, a, m, k, i0 + r, std::min(kMR, mr - r), pc, kc,
                   apack + r * kc);
          }
          for (index_t p = 0; p < b_panels; ++p) {
            const index_t j0 = jc + p * kNR;
            const index_t nr = std::min(kNR, jc + nc - j0);
            tile(kc, apack, bpack + p * kc * kNR, c + i0 * n + j0, n, mr, nr);
          }
        }
      };
      if (parallel) {
        runtime::parallel_for(0, row_panels, grain, body);
      } else {
        body(0, row_panels);
      }
    }
  }
}

void pack_b(Variant v, index_t k, index_t n, const real* b, real* bp) {
  if (k <= 0 || n <= 0) return;
  detail::pack_b(v, b, k, n, 0, k, 0, n, bp);
}

void run_packed(index_t m, index_t k, index_t n, const real* ap,
                const real* bp, real* c) {
  count_gemm(flops(m, k, n));
  if (m <= 0 || n <= 0 || k <= 0) return;
  if (naive_active() || !detail::kernel_available()) {
    // The oracle reads the plain operands, so unpack them first: A m×k and
    // B as n×k. naive_nt skips no term (naive_nn would skip exact zeros of
    // A, which here are padding taps and ReLU zeros), so both paths agree
    // on every input, Inf and NaN included.
    runtime::Workspace& ws = runtime::Workspace::tls();
    runtime::Workspace::Scope scope(ws);
    real* a = ws.alloc(m * k);
    real* bt = ws.alloc(n * k);
    for (index_t i = 0; i < m; ++i)
      for (index_t kk = 0; kk < k; ++kk)
        a[i * k + kk] = ap[((i / kMR) * k + kk) * kMR + i % kMR];
    for (index_t j = 0; j < n; ++j)
      for (index_t kk = 0; kk < k; ++kk)
        bt[j * k + kk] = bp[((j / kNR) * k + kk) * kNR + j % kNR];
    return naive_nt(m, k, n, a, bt, c);
  }
  const index_t rows = panels_per_tile() * kMR;
  for (index_t i0 = 0; i0 < m; i0 += rows) {
    for (index_t j0 = 0; j0 < n; j0 += kNR) {
      tile(k, ap + i0 * k, bp + j0 * k, c + i0 * n + j0, n,
           std::min(rows, m - i0), std::min(kNR, n - j0));
    }
  }
}

void naive(Variant v, index_t m, index_t k, index_t n, const real* a,
           const real* b, real* c) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  switch (v) {
    case Variant::NN: naive_nn(m, k, n, a, b, c); break;
    case Variant::TN: naive_tn(m, k, n, a, b, c); break;
    case Variant::NT: naive_nt(m, k, n, a, b, c); break;
  }
}

void run(Variant v, index_t m, index_t k, index_t n, const real* a,
         const real* b, real* c) {
  count_gemm(flops(m, k, n));
  if (naive_active()) {
    naive(v, m, k, n, a, b, c);
  } else {
    blocked(v, m, k, n, a, b, c);
  }
}

bool naive_active() { return naive_flag().load(std::memory_order_relaxed); }

void set_naive(bool on) {
  naive_flag().store(on, std::memory_order_relaxed);
}

}  // namespace oasis::tensor::gemm

#include "tensor/gemm/gemm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "common/error.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "runtime/workspace.h"
#include "tensor/gemm/kernels.h"

namespace oasis::tensor::gemm {
namespace {

using detail::MicroKernel;

// Below this many flops (2·m·k·n) a GEMM runs its chunks inline: the
// parallel_for dispatch costs more than the arithmetic it would split.
constexpr index_t kParallelGemmFlops = index_t{1} << 15;

index_t ceil_div(index_t a, index_t b) { return (a + b - 1) / b; }

// ---- Packing ----------------------------------------------------------------
//
// Pack strides follow the ACTIVE kernel's register tile (nr/mr below), so a
// wider AVX2/NEON tile packs wider panels than the scalar fallback. Packing
// only copies — it never touches the arithmetic — so the tile geometry is
// invisible in the output bits.

/// Packs op(B)[pc..pc+kc, jc..jc+nc) into nr-wide k-major micro-panels,
/// zero-padding the ragged last panel to nr columns.
void pack_b(Variant v, const real* __restrict b, index_t k, index_t n,
            index_t pc, index_t kc, index_t jc, index_t nc, index_t nr,
            real* __restrict bp) {
  const index_t panels = ceil_div(nc, nr);
  for (index_t p = 0; p < panels; ++p) {
    const index_t j0 = p * nr;
    const index_t w = std::min(nr, nc - j0);
    real* __restrict dst = bp + p * kc * nr;
    if (v == Variant::NT) {
      // op(B)[kk, j] = B[jc+j, pc+kk] with B stored n×k.
      for (index_t j = 0; j < w; ++j) {
        const real* __restrict src = b + (jc + j0 + j) * k + pc;
        for (index_t kk = 0; kk < kc; ++kk) dst[kk * nr + j] = src[kk];
      }
      if (w < nr) {
        for (index_t kk = 0; kk < kc; ++kk)
          for (index_t j = w; j < nr; ++j) dst[kk * nr + j] = 0.0;
      }
    } else {
      // op(B)[kk, j] = B[pc+kk, jc+j] with B stored k×n (NN and TN share B).
      for (index_t kk = 0; kk < kc; ++kk) {
        const real* __restrict src = b + (pc + kk) * n + jc + j0;
        real* __restrict row = dst + kk * nr;
        for (index_t j = 0; j < w; ++j) row[j] = src[j];
        for (index_t j = w; j < nr; ++j) row[j] = 0.0;
      }
    }
  }
}

/// Packs op(A)[i0..i0+mr, pc..pc+kc) k-major with mr_pack rows interleaved,
/// zero-padding ragged rows to mr_pack.
void pack_a(Variant v, const real* __restrict a, index_t m, index_t k,
            index_t i0, index_t mr, index_t pc, index_t kc, index_t mr_pack,
            real* __restrict ap) {
  if (v == Variant::TN) {
    // op(A)[i, kk] = A[pc+kk, i0+i] with A stored k×m.
    for (index_t kk = 0; kk < kc; ++kk) {
      const real* __restrict src = a + (pc + kk) * m + i0;
      real* __restrict dst = ap + kk * mr_pack;
      for (index_t r = 0; r < mr; ++r) dst[r] = src[r];
      for (index_t r = mr; r < mr_pack; ++r) dst[r] = 0.0;
    }
  } else {
    // op(A)[i, kk] = A[i0+i, pc+kk] with A stored m×k (NN and NT share A).
    for (index_t kk = 0; kk < kc; ++kk) {
      real* __restrict dst = ap + kk * mr_pack;
      for (index_t r = 0; r < mr; ++r) dst[r] = a[(i0 + r) * k + pc + kk];
      for (index_t r = mr; r < mr_pack; ++r) dst[r] = 0.0;
    }
  }
}

// ---- Naive oracle kernels (the pre-blocking triple loops) -------------------

// Output rows are written disjointly and each row's k-accumulation order is
// fixed, so row-parallel GEMMs are bit-identical at any thread count.
void for_each_output_row(index_t rows, index_t flops,
                         const std::function<void(index_t, index_t)>& body) {
  if (flops < kParallelGemmFlops) {
    body(0, rows);
    return;
  }
  runtime::parallel_for(0, rows, body);
}

void naive_nn(index_t m, index_t k, index_t n, const real* a, const real* b,
              real* c) {
  for_each_output_row(m, m * k * n, [&](index_t i0, index_t i1) {
    for (index_t i = i0; i < i1; ++i) {
      const real* arow = a + i * k;
      real* crow = c + i * n;
      for (index_t kk = 0; kk < k; ++kk) {
        const real av = arow[kk];
        if (av == 0.0) continue;
        const real* brow = b + kk * n;
        for (index_t j = 0; j < n; ++j) crow[j] += av * brow[j];
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
  for_each_output_row(m, m * k * n, [&](index_t i0, index_t i1) {
    for (index_t kk = 0; kk < k; ++kk) {
      const real* arow = a + kk * m;
      const real* brow = b + kk * n;
      for (index_t i = i0; i < i1; ++i) {
        const real av = arow[i];
        if (av == 0.0) continue;
        real* crow = c + i * n;
        for (index_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
}

void naive_nt(index_t m, index_t k, index_t n, const real* a, const real* b,
              real* c) {
  // c[i,j] += Σ_kk a[i,kk] * b[j,kk]: dot of two contiguous rows. Two
  // deliberate choices keep this bit-identical to the blocked path:
  //  * the chain is seeded from c[i,j] (not summed into 0 and added at the
  //    end), so every output element advances through the same
  //    ascending-k multiply-add sequence as the microkernel;
  //  * the fma is EXPLICIT. For an in-order dot-product reduction the
  //    vectorizer refuses to contract (it emits vector multiplies plus a
  //    serial add chain — two roundings per step), so the `+=` spelling
  //    used by the row-sweeping kernels above would diverge by ulps here.
  //    The scalar fma chain cannot vectorize anyway; this is the oracle,
  //    not the fast path.
  for_each_output_row(m, m * k * n, [&](index_t i0, index_t i1) {
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

Isa best_isa() {
  if (detail::avx2_compiled() && detail::avx2_supported()) return Isa::kAvx2;
  if (detail::neon_compiled()) return Isa::kNeon;
  return Isa::kScalar;
}

/// OASIS_GEMM_ISA, resolved once. An unset variable means "best available";
/// an unknown or unavailable value falls back to that with a one-time note
/// (aborting a training run over a bench knob would be worse).
Isa resolve_env_isa() {
  const char* env = std::getenv("OASIS_GEMM_ISA");
  if (env == nullptr || env[0] == '\0') return best_isa();
  const std::optional<Isa> parsed = parse_isa(env);
  if (parsed.has_value() && isa_available(*parsed)) return *parsed;
  std::fprintf(stderr, "[oasis::gemm] OASIS_GEMM_ISA=%s %s; using %s\n", env,
               parsed.has_value() ? "is not available on this host"
                                  : "is not a known ISA",
               isa_name(best_isa()));
  return best_isa();
}

std::atomic<int>& isa_flag() {
  static std::atomic<int> flag{static_cast<int>(resolve_env_isa())};
  return flag;
}

MicroKernel isa_kernel(Isa isa) {
  switch (isa) {
    case Isa::kAvx2: return detail::avx2_kernel();
    case Isa::kNeon: return detail::neon_kernel();
    case Isa::kScalar: break;
  }
  return detail::scalar_kernel();
}

void count_gemm(index_t flops) {
  if (!obs::kernel_metrics_enabled()) return;
  static obs::Counter& calls = obs::counter("kernel.gemm.calls");
  static obs::Counter& total = obs::counter("kernel.gemm.flops");
  calls.add(1);
  total.add(static_cast<std::uint64_t>(flops));
}

}  // namespace

// ---- Blocked driver ---------------------------------------------------------

void blocked(Variant v, index_t m, index_t k, index_t n, const real* a,
             const real* b, real* c) {
  if (m <= 0 || n <= 0 || k <= 0) return;  // C += empty product
  const MicroKernel mk = isa_kernel(active_isa());
  const index_t row_panels = ceil_div(m, mk.mr);
  // Shape-derived chunking: aim for ~8 chunks, at most 32 MR-panels per
  // chunk so large GEMMs expose enough parallelism while a chunk's packed A
  // traffic stays L2-friendly. Never depends on the thread count, so the
  // row partition — and with it the output bits — is fixed per ISA.
  const index_t grain = std::max<index_t>(
      1, std::min<index_t>(row_panels / 8, index_t{32}));
  const bool parallel = 2 * m * k * n >= kParallelGemmFlops && row_panels > 1;

  runtime::Workspace& ws = runtime::Workspace::tls();
  runtime::Workspace::Scope scope(ws);
  const index_t nc_max = std::min(n, kNC);
  real* bpack = ws.alloc(kKC * ceil_div(nc_max, mk.nr) * mk.nr);

  for (index_t jc = 0; jc < n; jc += kNC) {
    const index_t nc = std::min(kNC, n - jc);
    const index_t b_panels = ceil_div(nc, mk.nr);
    for (index_t pc = 0; pc < k; pc += kKC) {
      const index_t kc = std::min(kKC, k - pc);
      // B panel packed once, serially, then read-shared by every chunk.
      pack_b(v, b, k, n, pc, kc, jc, nc, mk.nr, bpack);
      const auto body = [&](index_t p0, index_t p1) {
        runtime::Workspace& tws = runtime::Workspace::tls();
        runtime::Workspace::Scope tscope(tws);
        real* apack = tws.alloc(kKC * mk.mr);
        for (index_t ip = p0; ip < p1; ++ip) {
          const index_t i0 = ip * mk.mr;
          const index_t mr = std::min(mk.mr, m - i0);
          pack_a(v, a, m, k, i0, mr, pc, kc, mk.mr, apack);
          for (index_t p = 0; p < b_panels; ++p) {
            const index_t j0 = jc + p * mk.nr;
            const index_t nr = std::min(mk.nr, jc + nc - j0);
            real* ctile = c + i0 * n + j0;
            if (mr == mk.mr && nr == mk.nr) {
              mk.full(kc, apack, bpack + p * kc * mk.nr, ctile, n);
            } else {
              mk.edge(kc, apack, bpack + p * kc * mk.nr, ctile, n, mr, nr);
            }
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
  count_gemm(2 * m * k * n);
  if (naive_active()) {
    naive(v, m, k, n, a, b, c);
  } else {
    blocked(v, m, k, n, a, b, c);
  }
}

namespace detail {

MicroKernel scalar_kernel() {
  return {generic_full<4, 8>, generic_tile<4, 8>, 4, 8};
}

}  // namespace detail

// ---- Dispatch surface -------------------------------------------------------

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kNeon: return "neon";
  }
  return "?";
}

std::optional<Isa> parse_isa(std::string_view name) {
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kNeon}) {
    if (name == isa_name(isa)) return isa;
  }
  return std::nullopt;
}

bool isa_compiled(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return true;
    case Isa::kAvx2: return detail::avx2_compiled();
    case Isa::kNeon: return detail::neon_compiled();
  }
  return false;
}

bool isa_available(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return true;
    case Isa::kAvx2: return detail::avx2_compiled() && detail::avx2_supported();
    case Isa::kNeon: return detail::neon_compiled();
  }
  return false;
}

std::vector<Isa> available_isas() {
  std::vector<Isa> out;
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kNeon}) {
    if (isa_available(isa)) out.push_back(isa);
  }
  return out;
}

Isa active_isa() {
  return static_cast<Isa>(isa_flag().load(std::memory_order_relaxed));
}

void set_isa(Isa isa) {
  OASIS_CHECK_MSG(isa_available(isa),
                  "gemm::set_isa: " << isa_name(isa)
                                    << " is not available on this host");
  isa_flag().store(static_cast<int>(isa), std::memory_order_relaxed);
}

bool naive_active() { return naive_flag().load(std::memory_order_relaxed); }

void set_naive(bool on) {
  naive_flag().store(on, std::memory_order_relaxed);
}

}  // namespace oasis::tensor::gemm

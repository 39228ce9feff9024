// Differential kernel tests: the blocked+packed GEMM layer must reproduce
// the retained naive oracle kernels BIT-FOR-BIT (see DESIGN.md §5f/§5k —
// the register kernel continues the oracle's ascending-k fused-multiply-add
// chain through C, so every output element sees the identical operation
// sequence regardless of register-tile geometry), and the naive oracle
// must in turn reproduce an independent scalar fma chain.
//
// The sweep covers degenerate shapes, non-tile-multiple edges (every live
// row count of the 6-row tile and the 8-column boundary), the KC/NC
// blocking boundaries, and the exact GEMM shapes the round benchmark's
// workloads issue, at 1 and 8 threads (the intra-GEMM row-panel parallel
// path included); Conv2d and Dense are exercised end-to-end against the
// OASIS_NAIVE_GEMM toggle. Workspace arena
// semantics (alignment, scope rewind, coalescing, steady-state no-growth)
// are pinned here too, since the kernels' zero-allocation claim rests on
// them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "runtime/parallel.h"
#include "runtime/workspace.h"
#include "tensor/gemm/gemm.h"
#include "tensor/gemm/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace oasis {
namespace {

using tensor::gemm::Variant;

/// Restores the global thread count and the naive-GEMM switch even when an
/// assertion aborts a test early.
struct KernelEnvGuard {
  ~KernelEnvGuard() {
    runtime::set_num_threads(0);
    tensor::gemm::set_naive(false);
  }
};

std::vector<real> random_vec(index_t n, common::Rng& rng) {
  std::vector<real> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

bool bits_equal(const std::vector<real>& a, const std::vector<real>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real)) == 0;
}

bool bits_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(real)) == 0;
}

using GemmFn = void (*)(Variant, index_t, index_t, index_t, const real*,
                        const real*, real*);

std::vector<real> run_gemm(GemmFn fn, Variant v, index_t m, index_t k,
                           index_t n, const std::vector<real>& a,
                           const std::vector<real>& b) {
  std::vector<real> c(m * n, 0.0);
  fn(v, m, k, n, a.data(), b.data(), c.data());
  return c;
}

struct Shape {
  index_t m, k, n;
};

// Degenerate shapes, ragged tile edges, and the exact blocking boundaries
// (one below, on, and above each): m around the 6-row register tile, n
// around the 8-column tile and twice it, k around the KC=256 and
// n around the NC=512 cache blocks.
const Shape kEdgeShapes[] = {
    {1, 1, 1},    {1, 5, 1},     {3, 1, 4},    {1, 64, 1},   {5, 1, 9},
    {5, 7, 9},    {13, 17, 31},  {4, 8, 8},    {8, 16, 16},  {12, 24, 40},
    {3, 255, 17}, {3, 256, 17},  {3, 257, 17}, {4, 512, 8},  {7, 511, 23},
    {6, 33, 7},   {6, 33, 8},    {6, 33, 9},   {2, 9, 511},  {2, 9, 512},
    {2, 9, 513},  {129, 12, 33}, {7, 40, 15},  {7, 40, 16},  {7, 40, 17},
    {11, 13, 18}, {18, 21, 24},
};

// Ragged shapes at or above the parallel cutoff (gemm::kParallelGemmFlops),
// so the 8-thread sweep splits them into row panels across the pool: m
// leaves a 1-row last panel, n a ragged last column tile, and k or n
// crosses a KC/NC block. Every edge shape above runs inline.
const Shape kParallelEdgeShapes[] = {
    {133, 257, 41}, {97, 300, 23}, {13, 80, 515},
};

// The exact GEMMs the round benchmark's workloads issue, as (m, k, n) for
// the variant the layer calls them with; the sweep runs all three variants
// on each. Their m (8, 16, 27, 72, 10, 4) leaves ragged row panels under the
// 6-row tile, so the edge path carries most of the round's flops.
const Shape kWorkloadShapes[] = {
    // oasis_convnet conv0 (3→8 channels, 24×24): fwd NN, grad_w NT, grad_x TN
    {8, 27, 576},   {8, 576, 27},   {27, 8, 576},
    // oasis_convnet conv1 (8→16 channels, 12×12)
    {16, 72, 144},  {16, 144, 72},  {72, 16, 144},
    // socket_mlp Dense 3072→256→10 at D'=32: fwd NT, grad_w TN, grad_x NN
    {32, 3072, 256}, {32, 256, 10}, {256, 32, 3072}, {10, 32, 256},
    {32, 256, 3072}, {32, 10, 256},
    // shard_stream Dense 432→10 at B=4: every tile ragged (m < MR)
    {4, 432, 10},   {10, 4, 432},   {4, 10, 432},
};

/// Independent scalar reference: one std::fma chain per output element,
/// ascending k, seeded from C — the operation sequence DESIGN.md §5f pins —
/// with none of the naive kernels' loop orders, zero skips or row chunking.
void scalar_chain(Variant v, index_t m, index_t k, index_t n, const real* a,
                  const real* b, real* c) {
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      real s = c[i * n + j];
      for (index_t kk = 0; kk < k; ++kk) {
        const real av = v == Variant::TN ? a[kk * m + i] : a[i * k + kk];
        const real bv = v == Variant::NT ? b[j * k + kk] : b[kk * n + j];
        s = std::fma(av, bv, s);
      }
      c[i * n + j] = s;
    }
  }
}

/// The two GEMM paths a host can run, each checked against a reference.
/// `avx2` is the register kernel (its TU is built with -mavx2 -mfma on
/// x86, with baseline flags on AArch64) against the naive oracle. `scalar`
/// is the naive oracle itself — what `blocked` runs where the register
/// kernel cannot — against the independent scalar chain above.
enum class GemmPath { kScalar, kAvx2 };

struct PathCheck {
  GemmFn reference;
  GemmFn under_test;
};

PathCheck path_check(GemmPath path) {
  if (path == GemmPath::kScalar) return {scalar_chain, tensor::gemm::naive};
  return {tensor::gemm::naive, tensor::gemm::blocked};
}

std::string path_param_name(const ::testing::TestParamInfo<GemmPath>& info) {
  return info.param == GemmPath::kScalar ? "scalar" : "avx2";
}

/// Reference vs the path under test over a shape table, serial and
/// 8-thread.
template <std::size_t N>
void sweep_shapes_bit_identical(GemmPath path, const Shape (&shapes)[N],
                                const char* tag) {
  const PathCheck check = path_check(path);
  common::Rng rng(0xD1FFu);
  for (const auto& s : shapes) {
    const auto a = random_vec(s.m * s.k, rng);
    const auto b = random_vec(s.k * s.n, rng);
    for (const Variant v : {Variant::NN, Variant::TN, Variant::NT}) {
      const auto oracle = run_gemm(check.reference, v, s.m, s.k, s.n, a, b);
      runtime::set_num_threads(1);
      const auto serial = run_gemm(check.under_test, v, s.m, s.k, s.n, a, b);
      runtime::set_num_threads(8);
      const auto threaded =
          run_gemm(check.under_test, v, s.m, s.k, s.n, a, b);
      EXPECT_TRUE(bits_equal(oracle, serial))
          << tag << " variant " << static_cast<int>(v) << " shape " << s.m
          << "x" << s.k << "x" << s.n << " (1 thread)";
      EXPECT_TRUE(bits_equal(oracle, threaded))
          << tag << " variant " << static_cast<int>(v) << " shape " << s.m
          << "x" << s.k << "x" << s.n << " (8 threads)";
    }
  }
}

void sweep_random_bit_identical(GemmPath path, const char* tag) {
  const PathCheck check = path_check(path);
  common::Rng rng(0x5EEDu);
  for (int trial = 0; trial < 24; ++trial) {
    const auto m = static_cast<index_t>(rng.uniform_int(1, 97));
    const auto k = static_cast<index_t>(rng.uniform_int(1, 97));
    const auto n = static_cast<index_t>(rng.uniform_int(1, 97));
    const auto a = random_vec(m * k, rng);
    const auto b = random_vec(k * n, rng);
    for (const Variant v : {Variant::NN, Variant::TN, Variant::NT}) {
      const auto oracle = run_gemm(check.reference, v, m, k, n, a, b);
      runtime::set_num_threads(1);
      const auto serial = run_gemm(check.under_test, v, m, k, n, a, b);
      runtime::set_num_threads(8);
      const auto threaded = run_gemm(check.under_test, v, m, k, n, a, b);
      EXPECT_TRUE(bits_equal(oracle, serial))
          << tag << " trial " << trial << " variant " << static_cast<int>(v)
          << " shape " << m << "x" << k << "x" << n;
      EXPECT_TRUE(bits_equal(oracle, threaded))
          << tag << " trial " << trial << " variant " << static_cast<int>(v)
          << " shape " << m << "x" << k << "x" << n << " (8 threads)";
    }
  }
}

// ---- Differential matrix ----------------------------------------------------

class IsaSweep : public ::testing::TestWithParam<GemmPath> {};

TEST_P(IsaSweep, GemmEdgeShapesBitIdenticalF64) {
  KernelEnvGuard guard;
  sweep_shapes_bit_identical(GetParam(), kEdgeShapes, "f64");
}

TEST_P(IsaSweep, GemmParallelEdgeShapesBitIdenticalF64) {
  KernelEnvGuard guard;
  for (const auto& s : kParallelEdgeShapes) {
    ASSERT_GE(tensor::gemm::flops(s.m, s.k, s.n),
              tensor::gemm::kParallelGemmFlops)
        << s.m << "x" << s.k << "x" << s.n << " would run inline";
  }
  sweep_shapes_bit_identical(GetParam(), kParallelEdgeShapes, "f64");
}

TEST_P(IsaSweep, GemmWorkloadShapesBitIdenticalF64) {
  KernelEnvGuard guard;
  sweep_shapes_bit_identical(GetParam(), kWorkloadShapes, "f64");
}

TEST_P(IsaSweep, GemmRandomShapeSweepBitIdenticalF64) {
  KernelEnvGuard guard;
  sweep_random_bit_identical(GetParam(), "f64");
}

TEST_P(IsaSweep, GemmAccumulatesIntoExistingC) {
  KernelEnvGuard guard;
  const PathCheck check = path_check(GetParam());
  common::Rng rng(0xACC0u);
  const index_t m = 21, k = 37, n = 45;
  const auto a64 = random_vec(m * k, rng);
  const auto b64 = random_vec(k * n, rng);
  const auto seed64 = random_vec(m * n, rng);
  for (const Variant v : {Variant::NN, Variant::TN, Variant::NT}) {
    auto c_reference = seed64;
    auto c_under_test = seed64;
    check.reference(v, m, k, n, a64.data(), b64.data(), c_reference.data());
    check.under_test(v, m, k, n, a64.data(), b64.data(), c_under_test.data());
    EXPECT_TRUE(bits_equal(c_reference, c_under_test))
        << "f64 variant " << static_cast<int>(v);
  }
}

INSTANTIATE_TEST_SUITE_P(Isas, IsaSweep,
                         ::testing::Values(GemmPath::kScalar, GemmPath::kAvx2),
                         path_param_name);

// The sweeps above compare naive against naive where the register kernel
// cannot run, so pin that it does run wherever the CPU has AVX2 and FMA.
TEST(KernelDiff, RegisterKernelRunsOnFmaHosts) {
#if defined(__x86_64__) || defined(__i386__)
  if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) {
    GTEST_SKIP() << "this CPU lacks AVX2/FMA; blocked runs the naive oracle";
  }
#endif
  EXPECT_TRUE(tensor::gemm::detail::kernel_available());
}

TEST(KernelDiff, RunDispatchHonorsNaiveSwitch) {
  KernelEnvGuard guard;
  EXPECT_FALSE(tensor::gemm::naive_active());
  tensor::gemm::set_naive(true);
  EXPECT_TRUE(tensor::gemm::naive_active());

  common::Rng rng(0x7061u);
  const index_t m = 6, k = 300, n = 10;  // crosses a KC boundary
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<real> via_run(m * n, 0.0);
  tensor::gemm::run(Variant::NN, m, k, n, a.data(), b.data(), via_run.data());
  EXPECT_TRUE(bits_equal(
      via_run, run_gemm(tensor::gemm::naive, Variant::NN, m, k, n, a, b)));

  tensor::gemm::set_naive(false);
  std::fill(via_run.begin(), via_run.end(), 0.0);
  tensor::gemm::run(Variant::NN, m, k, n, a.data(), b.data(), via_run.data());
  EXPECT_TRUE(bits_equal(
      via_run, run_gemm(tensor::gemm::blocked, Variant::NN, m, k, n, a, b)));
}

// ---- Layer-level differential runs ------------------------------------------

struct ConvRun {
  tensor::Tensor y, grad_x, grad_w, grad_b;
};

/// One forward+backward through a freshly seeded Conv2d; `naive` selects the
/// oracle GEMM path, everything else (weights, input, grad) is identical.
ConvRun conv_run(bool naive, int threads, index_t stride, index_t pad) {
  tensor::gemm::set_naive(naive);
  runtime::set_num_threads(threads);
  common::Rng init_rng(0xC04Fu);
  nn::Conv2d conv(/*in_channels=*/3, /*out_channels=*/5, /*kernel=*/3, stride,
                  pad, init_rng);
  common::Rng data_rng(0xDA7Au);
  tensor::Tensor x({2, 3, 9, 9});
  for (auto& v : x.data()) v = data_rng.uniform(-1.0, 1.0);
  ConvRun out;
  out.y = conv.forward(x, /*training=*/true);
  tensor::Tensor gy(out.y.shape());
  for (auto& v : gy.data()) v = data_rng.uniform(-1.0, 1.0);
  out.grad_x = conv.backward(gy);
  out.grad_w = conv.weight().grad;
  out.grad_b = conv.bias().grad;
  return out;
}

TEST(KernelDiff, Conv2dForwardBackwardBitIdentical) {
  KernelEnvGuard guard;
  for (const auto& [stride, pad] :
       {std::pair<index_t, index_t>{1, 1}, {2, 0}}) {
    const ConvRun oracle = conv_run(/*naive=*/true, /*threads=*/1, stride, pad);
    for (const int threads : {1, 8}) {
      const ConvRun blocked = conv_run(false, threads, stride, pad);
      EXPECT_TRUE(bits_equal(oracle.y, blocked.y))
          << "forward, stride " << stride << ", " << threads << " threads";
      EXPECT_TRUE(bits_equal(oracle.grad_x, blocked.grad_x))
          << "grad_x, stride " << stride << ", " << threads << " threads";
      EXPECT_TRUE(bits_equal(oracle.grad_w, blocked.grad_w))
          << "grad_w, stride " << stride << ", " << threads << " threads";
      EXPECT_TRUE(bits_equal(oracle.grad_b, blocked.grad_b))
          << "grad_b, stride " << stride << ", " << threads << " threads";
    }
  }
}

struct DenseRun {
  tensor::Tensor y, grad_x, grad_w, grad_b;
};

DenseRun dense_run(bool naive, int threads) {
  tensor::gemm::set_naive(naive);
  runtime::set_num_threads(threads);
  common::Rng init_rng(0xDE45u);
  nn::Dense dense(/*in_features=*/37, /*out_features=*/29, init_rng);
  common::Rng data_rng(0xDA7Bu);
  tensor::Tensor x({17, 37});
  for (auto& v : x.data()) v = data_rng.uniform(-1.0, 1.0);
  DenseRun out;
  out.y = dense.forward(x, /*training=*/true);
  tensor::Tensor gy(out.y.shape());
  for (auto& v : gy.data()) v = data_rng.uniform(-1.0, 1.0);
  out.grad_x = dense.backward(gy);
  out.grad_w = dense.weight().grad;
  out.grad_b = dense.bias().grad;
  return out;
}

TEST(KernelDiff, DenseForwardBackwardBitIdentical) {
  KernelEnvGuard guard;
  const DenseRun oracle = dense_run(/*naive=*/true, /*threads=*/1);
  for (const int threads : {1, 8}) {
    const DenseRun blocked = dense_run(false, threads);
    EXPECT_TRUE(bits_equal(oracle.y, blocked.y)) << threads << " threads";
    EXPECT_TRUE(bits_equal(oracle.grad_x, blocked.grad_x))
        << threads << " threads";
    EXPECT_TRUE(bits_equal(oracle.grad_w, blocked.grad_w))
        << threads << " threads";
    EXPECT_TRUE(bits_equal(oracle.grad_b, blocked.grad_b))
        << threads << " threads";
  }
}

// ---- im2col / col2im spans --------------------------------------------------
//
// im2col_into and col2im_add write each column-matrix row as spans (interior
// copy, padding fill). These references are the element-wise loops they
// replaced, with a bounds test per element; the spans must match them
// exactly, and the ASan/UBSan kernel stage would flag a span overrun.

struct ConvGeometry {
  index_t c, h, w, k, stride, pad;
};

index_t out_extent(index_t in, index_t k, index_t stride, index_t pad) {
  return (in + 2 * pad - k) / stride + 1;
}

void im2col_reference(const real* src, const ConvGeometry& g, real* dst) {
  const index_t oh = out_extent(g.h, g.k, g.stride, g.pad);
  const index_t ow = out_extent(g.w, g.k, g.stride, g.pad);
  for (index_t ch = 0; ch < g.c; ++ch) {
    for (index_t ki = 0; ki < g.k; ++ki) {
      for (index_t kj = 0; kj < g.k; ++kj) {
        real* drow = dst + ((ch * g.k + ki) * g.k + kj) * oh * ow;
        for (index_t oi = 0; oi < oh; ++oi) {
          const auto si = static_cast<std::ptrdiff_t>(oi * g.stride + ki) -
                          static_cast<std::ptrdiff_t>(g.pad);
          for (index_t oj = 0; oj < ow; ++oj) {
            const auto sj = static_cast<std::ptrdiff_t>(oj * g.stride + kj) -
                            static_cast<std::ptrdiff_t>(g.pad);
            real v = 0.0;
            if (si >= 0 && si < static_cast<std::ptrdiff_t>(g.h) && sj >= 0 &&
                sj < static_cast<std::ptrdiff_t>(g.w)) {
              v = src[(ch * g.h + static_cast<index_t>(si)) * g.w +
                      static_cast<index_t>(sj)];
            }
            drow[oi * ow + oj] = v;
          }
        }
      }
    }
  }
}

void col2im_reference(const real* src, const ConvGeometry& g, real* dst) {
  const index_t oh = out_extent(g.h, g.k, g.stride, g.pad);
  const index_t ow = out_extent(g.w, g.k, g.stride, g.pad);
  for (index_t ch = 0; ch < g.c; ++ch) {
    for (index_t ki = 0; ki < g.k; ++ki) {
      for (index_t kj = 0; kj < g.k; ++kj) {
        const real* srow = src + ((ch * g.k + ki) * g.k + kj) * oh * ow;
        for (index_t oi = 0; oi < oh; ++oi) {
          const auto si = static_cast<std::ptrdiff_t>(oi * g.stride + ki) -
                          static_cast<std::ptrdiff_t>(g.pad);
          if (si < 0 || si >= static_cast<std::ptrdiff_t>(g.h)) continue;
          for (index_t oj = 0; oj < ow; ++oj) {
            const auto sj = static_cast<std::ptrdiff_t>(oj * g.stride + kj) -
                            static_cast<std::ptrdiff_t>(g.pad);
            if (sj < 0 || sj >= static_cast<std::ptrdiff_t>(g.w)) continue;
            dst[(ch * g.h + static_cast<index_t>(si)) * g.w +
                static_cast<index_t>(sj)] += srow[oi * ow + oj];
          }
        }
      }
    }
  }
}

/// Every k ∈ {1,3,5} × stride ∈ {1,2,3} × pad ∈ {0,1,2} × C ∈ {1,3} on
/// non-square images that fit the kernel once padded. The 3×1 image gives
/// kernel columns that read padding only (an empty interior span).
std::vector<ConvGeometry> span_geometries() {
  std::vector<ConvGeometry> out;
  for (const index_t c : {1, 3}) {
    for (const auto& [h, w] :
         {std::pair<index_t, index_t>{7, 5}, {4, 9}, {3, 1}}) {
      for (const index_t k : {1, 3, 5}) {
        for (const index_t stride : {1, 2, 3}) {
          for (const index_t pad : {0, 1, 2}) {
            if (h + 2 * pad < k || w + 2 * pad < k) continue;
            out.push_back({c, h, w, k, stride, pad});
          }
        }
      }
    }
  }
  return out;
}

std::string describe(const ConvGeometry& g) {
  return "C" + std::to_string(g.c) + " " + std::to_string(g.h) + "x" +
         std::to_string(g.w) + " k" + std::to_string(g.k) + " s" +
         std::to_string(g.stride) + " p" + std::to_string(g.pad);
}

TEST(Im2colSpans, Im2colMatchesElementwiseReference) {
  common::Rng rng(0x12C0u);
  const auto geometries = span_geometries();
  ASSERT_EQ(geometries.size(), 138u);
  for (const ConvGeometry& g : geometries) {
    const auto image = random_vec(g.c * g.h * g.w, rng);
    const index_t cols_size = g.c * g.k * g.k *
                              out_extent(g.h, g.k, g.stride, g.pad) *
                              out_extent(g.w, g.k, g.stride, g.pad);
    // Poisoned outputs: a span that skips an element leaves the poison.
    std::vector<real> expected(cols_size, 7.0), got(cols_size, -7.0);
    im2col_reference(image.data(), g, expected.data());
    tensor::im2col_into(image.data(), g.c, g.h, g.w, g.k, g.k, g.stride,
                        g.pad, got.data());
    EXPECT_TRUE(bits_equal(expected, got)) << describe(g);
  }
}

TEST(Im2colSpans, Col2imMatchesElementwiseReference) {
  common::Rng rng(0xC021u);
  for (const ConvGeometry& g : span_geometries()) {
    const index_t cols_size = g.c * g.k * g.k *
                              out_extent(g.h, g.k, g.stride, g.pad) *
                              out_extent(g.w, g.k, g.stride, g.pad);
    const auto cols = random_vec(cols_size, rng);
    // A non-zero starting image: col2im_add accumulates onto it.
    const auto base = random_vec(g.c * g.h * g.w, rng);
    auto expected = base;
    auto got = base;
    col2im_reference(cols.data(), g, expected.data());
    tensor::col2im_add(cols.data(), g.c, g.h, g.w, g.k, g.k, g.stride, g.pad,
                       got.data());
    EXPECT_TRUE(bits_equal(expected, got)) << describe(g);
  }
}

// ---- Workspace arena --------------------------------------------------------

TEST(Workspace, AllocationsAre64ByteAligned) {
  runtime::Workspace ws;
  runtime::Workspace::Scope scope(ws);
  for (const index_t count : {1, 7, 64, 513, 4096}) {
    const real* p = ws.alloc(count);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u)
        << "count " << count;
  }
}

TEST(Workspace, AllocOutsideScopeThrows) {
  runtime::Workspace ws;
  EXPECT_THROW(ws.alloc(8), Error);
  {
    runtime::Workspace::Scope scope(ws);
    EXPECT_NE(ws.alloc(8), nullptr);
  }
  EXPECT_THROW(ws.alloc(8), Error);
}

TEST(Workspace, ScopeRewindReusesStorage) {
  runtime::Workspace ws;
  real* first = nullptr;
  {
    runtime::Workspace::Scope scope(ws);
    first = ws.alloc(100);
  }
  {
    runtime::Workspace::Scope scope(ws);
    // Same single backing block, rewound: the second scope's allocation
    // lands exactly where the first one did.
    EXPECT_EQ(ws.alloc(100), first);
  }
}

TEST(Workspace, NestedScopesRewindToTheirOwnMark) {
  runtime::Workspace ws;
  runtime::Workspace::Scope outer(ws);
  real* a = ws.alloc(16);
  real* inner_ptr = nullptr;
  {
    runtime::Workspace::Scope inner(ws);
    inner_ptr = ws.alloc(16);
    EXPECT_NE(inner_ptr, a);
  }
  // The inner scope's rewind must not release the outer allocation: the next
  // bump continues from `a` + 16, i.e. exactly where the inner scope began.
  EXPECT_EQ(ws.alloc(16), inner_ptr);
}

TEST(Workspace, FragmentedArenaCoalescesToOneBlock) {
  runtime::Workspace ws;
  {
    runtime::Workspace::Scope scope(ws);
    // Two allocations that cannot share the initial block force a second
    // block while the scope is live.
    ws.alloc(600);
    ws.alloc(600);
    EXPECT_GE(ws.block_count(), 2u);
  }
  const index_t cap = ws.capacity();
  EXPECT_GE(cap, 1200u);
  {
    runtime::Workspace::Scope scope(ws);
    // The combined capacity comes back as a single block...
    ws.alloc(600);
    ws.alloc(600);
    EXPECT_EQ(ws.block_count(), 1u);
  }
  // ...and no capacity was lost in the exchange.
  EXPECT_EQ(ws.capacity(), cap);
}

TEST(Workspace, SteadyStateNeverGrows) {
  runtime::Workspace ws;
  auto hot_loop = [&ws] {
    runtime::Workspace::Scope scope(ws);
    ws.alloc(700);
    runtime::Workspace::Scope inner(ws);
    ws.alloc(300);
    ws.alloc(900);
  };
  hot_loop();
  hot_loop();  // second pass settles the coalesced block
  const index_t cap = ws.capacity();
  const index_t blocks = ws.block_count();
  for (int i = 0; i < 16; ++i) hot_loop();
  EXPECT_EQ(ws.capacity(), cap);
  EXPECT_EQ(ws.block_count(), blocks);
}

TEST(Workspace, BlockedGemmLeavesTlsArenaSettled) {
  KernelEnvGuard guard;
  common::Rng rng(0x9E99u);
  const index_t m = 64, k = 300, n = 520;  // crosses KC and NC boundaries
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<real> c(m * n, 0.0);
  runtime::set_num_threads(1);  // keep all packing on this thread's arena
  tensor::gemm::blocked(Variant::NN, m, k, n, a.data(), b.data(), c.data());
  runtime::Workspace& ws = runtime::Workspace::tls();
  const index_t cap = ws.capacity();
  for (int i = 0; i < 4; ++i) {
    tensor::gemm::blocked(Variant::NN, m, k, n, a.data(), b.data(), c.data());
  }
  // Warm-up reached the high-water mark; the hot loop re-uses it verbatim.
  EXPECT_EQ(ws.capacity(), cap);
  EXPECT_LE(ws.block_count(), 1u);
}

}  // namespace
}  // namespace oasis

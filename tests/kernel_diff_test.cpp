// Differential kernel tests: the blocked+packed GEMM layer must reproduce
// the retained naive oracle kernels BIT-FOR-BIT (see DESIGN.md §5f/§5k —
// the register kernel continues the oracle's ascending-k fused-multiply-add
// chain through C, so every output element sees the identical operation
// sequence regardless of register-tile geometry), and the naive oracle
// must in turn reproduce an independent scalar fma chain.
//
// The sweep covers degenerate shapes, non-tile-multiple edges (every live
// row count of the 6-row tile, pairs of row panels for the 12×8 tile, and
// the 8-column boundary), the KC/NC blocking boundaries, and the exact GEMM
// shapes the round benchmark's workloads issue, at 1 and 8 threads (the
// intra-GEMM row-panel parallel path included); the 12×8 tile is also
// checked against two 6×8 tile calls on the same packed panels. Conv2d and
// Dense are exercised end-to-end against the OASIS_NAIVE_GEMM toggle.
// Workspace arena
// semantics (alignment, scope rewind, coalescing, steady-state no-growth)
// are pinned here too, since the kernels' zero-allocation claim rests on
// them.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "obs/obs.h"
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
// (one below, on, and above each): m around the 6-row register tile and
// the 12-row pair of panels (11: a pair whose second panel is ragged; 23:
// a pair, then a full panel and a ragged one; 24: two pairs; 25: two pairs
// and a ragged row), n around the 8-column tile and twice it, k around the
// KC=256 and n around the NC=512 cache blocks.
const Shape kEdgeShapes[] = {
    {1, 1, 1},    {1, 5, 1},     {3, 1, 4},    {1, 64, 1},   {5, 1, 9},
    {5, 7, 9},    {13, 17, 31},  {4, 8, 8},    {8, 16, 16},  {12, 24, 40},
    {3, 255, 17}, {3, 256, 17},  {3, 257, 17}, {4, 512, 8},  {7, 511, 23},
    {6, 33, 7},   {6, 33, 8},    {6, 33, 9},   {2, 9, 511},  {2, 9, 512},
    {2, 9, 513},  {129, 12, 33}, {7, 40, 15},  {7, 40, 16},  {7, 40, 17},
    {11, 13, 18}, {18, 21, 24},  {11, 9, 16},  {23, 30, 17}, {24, 7, 8},
    {25, 257, 9},
};

// Ragged shapes at or above the parallel cutoff (gemm::kParallelGemmFlops),
// so the 8-thread sweep splits them into row panels across the pool: m
// leaves a 1-row last panel, n a ragged last column tile, and k or n
// crosses a KC/NC block. 150×200×40 has 25 row panels, so `blocked` splits
// it with a grain of 3 where only the 6×8 tile runs, and of 4 where the
// 12×8 tile runs (the grain rounds up to whole pairs): a pair of panels
// that crossed a chunk boundary would race there. Every edge shape above
// runs inline.
const Shape kParallelEdgeShapes[] = {
    {133, 257, 41}, {97, 300, 23}, {13, 80, 515}, {150, 200, 40},
};

// The GEMM shapes the round benchmark's workloads issue, as (m, k, n) for
// the variant the layer calls them with; the sweep runs all three variants
// on each. The conv forward and weight-gradient products run on packed
// panels with the roles swapped (ConvPacked below checks that path); their
// shapes sit here beside the orientation they replaced, whose m (8, 16)
// left ragged row panels under the 6-row tile.
const Shape kWorkloadShapes[] = {
    // oasis_convnet conv0 (3→8 channels, 24×24): fwd outᵀ = colsᵀ·Wᵀ and
    // grad_w gWᵀ = cols·gyᵀ (packed), grad_x TN; then fwd NN and grad_w NT
    // in the old orientation
    {576, 27, 8},   {27, 576, 8},   {27, 8, 576},   {8, 27, 576},
    {8, 576, 27},
    // oasis_convnet conv1 (8→16 channels, 12×12)
    {144, 72, 16},  {72, 144, 16},  {72, 16, 144},  {16, 72, 144},
    {16, 144, 72},
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
/// x86, with baseline flags on AArch64) against the naive oracle; on an
/// AVX-512 host it pairs full row panels into the 12×8 tile. `scalar` is
/// the naive oracle itself — what `blocked` runs where the register kernel
/// cannot — against the independent scalar chain above.
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

// Likewise, on an AVX-512 host the sweeps above must reach the 12×8 tile,
// not only the 6×8 one.
TEST(KernelDiff, WideKernelRunsOnAvx512Hosts) {
#if defined(__x86_64__) || defined(__i386__)
  if (!__builtin_cpu_supports("avx512f")) {
    GTEST_SKIP() << "this CPU lacks AVX-512F; only the 6x8 tile runs";
  }
  EXPECT_TRUE(tensor::gemm::detail::wide_kernel_available());
#else
  EXPECT_FALSE(tensor::gemm::detail::wide_kernel_available());
#endif
}

// The 12×8 tile against two 6×8 tile calls on the same two packed-A panels,
// C seeded with random values, on k counts around the KC block and conv0's
// unblocked weight-gradient k (576). ±0.0, ±Inf and NaN are planted in A,
// B and C, so 0·Inf and NaN propagation run through both tiles too.
TEST(KernelDiff, WideTileMatchesTwoNarrowTiles) {
  if (!tensor::gemm::detail::wide_kernel_available()) {
    GTEST_SKIP() << "the 12x8 tile does not run on this host";
  }
  using tensor::gemm::kMR;
  using tensor::gemm::kNR;
  const real inf = std::numeric_limits<real>::infinity();
  const real specials[] = {0.0, -0.0, inf, -inf,
                           std::numeric_limits<real>::quiet_NaN()};
  const index_t rows = 2 * kMR, ldc = kNR + 3;  // C rows are strided
  common::Rng rng(0x12C8u);
  const auto plant = [&](std::vector<real>& v, index_t count) {
    const auto last = static_cast<std::int64_t>(v.size()) - 1;
    for (index_t i = 0; i < count; ++i) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(0, last));
      v[at] = specials[rng.uniform_int(0, std::size(specials) - 1)];
    }
  };
  for (const index_t kc : {1, 7, 255, 256, 576}) {
    for (const bool poisoned : {false, true}) {
      auto ap = random_vec(rows * kc, rng);
      auto bp = random_vec(kNR * kc, rng);
      auto c = random_vec(rows * ldc, rng);
      if (poisoned) {
        plant(ap, 1 + kc / 16);
        plant(bp, 1 + kc / 32);
        plant(c, 4);
      }
      auto narrow = c;
      tensor::gemm::detail::kernel_tile(kc, ap.data(), bp.data(),
                                        narrow.data(), ldc, kMR, kNR);
      tensor::gemm::detail::kernel_tile(kc, ap.data() + kc * kMR, bp.data(),
                                        narrow.data() + kMR * ldc, ldc, kMR,
                                        kNR);
      auto wide = c;
      tensor::gemm::detail::kernel_tile12(kc, ap.data(), bp.data(),
                                          wide.data(), ldc);
      EXPECT_TRUE(bits_equal(narrow, wide))
          << "kc " << kc << (poisoned ? " with specials" : "");
    }
  }
}

// ---- Packed-B layout --------------------------------------------------------

/// op(B)[pc..pc+kc, jc..jc+nc) in the packed-B layout gemm.h documents,
/// one element at a time: column j at panel j / kNR, lane j % kNR, and
/// every lane past nc zero.
std::vector<real> packed_b_reference(Variant v, const std::vector<real>& b,
                                     index_t k, index_t n, index_t pc,
                                     index_t kc, index_t jc, index_t nc) {
  using tensor::gemm::kNR;
  std::vector<real> out(tensor::gemm::packed_b_size(kc, nc), 0.0);
  for (index_t kk = 0; kk < kc; ++kk) {
    for (index_t j = 0; j < nc; ++j) {
      const real value = v == Variant::NT ? b[(jc + j) * k + pc + kk]
                                          : b[(pc + kk) * n + jc + j];
      out[((j / kNR) * kc + kk) * kNR + j % kNR] = value;
    }
  }
  return out;
}

// Packing only moves values, so a panel must match the element loop byte
// for byte, padding included, whatever the pack does in registers: every
// ragged width (nc % 8 = 0..7, one and two full panels), depths with
// every tail the pack may block k by, and the (pc, jc) offsets the blocked
// driver reaches on a shape above kKC × kNC, with NaN, ±Inf and −0.0
// planted in B. The output starts as a NaN pattern, so a lane the pack
// skips shows too.
TEST(KernelDiff, PackBMatchesElementwiseLayout) {
  using tensor::gemm::kKC;
  using tensor::gemm::kNC;
  const real inf = std::numeric_limits<real>::infinity();
  const real specials[] = {-0.0, inf, -inf,
                           std::numeric_limits<real>::quiet_NaN()};
  const index_t k = 2 * kKC, n = kNC + 16;
  common::Rng rng(0x9AC4Bu);
  auto b = random_vec(k * n, rng);
  for (index_t i = 0; i < b.size(); i += 7) b[i] = specials[(i / 7) % 4];
  const real poison = std::bit_cast<real>(std::uint64_t{0x7FF4DEADBEEF0001u});
  for (const Variant v : {Variant::NN, Variant::TN, Variant::NT}) {
    for (const index_t kc : {1, 3, 8, 27, 255, 256}) {
      for (index_t nc = 1; nc <= 16; ++nc) {
        const std::string at = "variant " +
                               std::to_string(static_cast<int>(v)) + ", kc " +
                               std::to_string(kc) + ", nc " +
                               std::to_string(nc);
        for (const index_t pc : {index_t{0}, kKC}) {
          for (const index_t jc : {index_t{0}, kNC}) {
            std::vector<real> bp(tensor::gemm::packed_b_size(kc, nc), poison);
            tensor::gemm::detail::pack_b(v, b.data(), k, n, pc, kc, jc, nc,
                                         bp.data());
            EXPECT_TRUE(bits_equal(
                bp, packed_b_reference(v, b, k, n, pc, kc, jc, nc)))
                << at << ", pc " << pc << ", jc " << jc;
          }
        }
        // The whole-matrix entry on a kc × nc op(B) of its own.
        const std::vector<real> small(b.begin(), b.begin() + kc * nc);
        std::vector<real> bp(tensor::gemm::packed_b_size(kc, nc), poison);
        tensor::gemm::pack_b(v, kc, nc, small.data(), bp.data());
        EXPECT_TRUE(bits_equal(
            bp, packed_b_reference(v, small, kc, nc, 0, kc, 0, nc)))
            << at << ", whole matrix";
      }
    }
  }
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

// ---- Conv lowerings and col2im spans ----------------------------------------
//
// im2row_packed and im2col_packed lower an image straight into packed GEMM
// panels through a zero-padded copy; col2im_add writes each column-matrix
// row as spans (interior copy, padding skipped). These references are the
// element-wise loops with a bounds test per element; the lowerings and
// spans must match them exactly, and the ASan/UBSan kernel stage would flag
// a panel or span overrun.

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
    std::vector<real> expected(cols_size, 7.0);
    im2col_reference(image.data(), g, expected.data());
    const index_t taps = g.c * g.k * g.k, pix = cols_size / taps;
    // Poisoned panels: a lowering that skips an element (padding rows
    // included) leaves the poison.
    std::vector<real> rows(tensor::gemm::packed_a_size(pix, taps), -7.0);
    std::vector<real> cols(tensor::gemm::packed_a_size(taps, pix), -7.0);
    tensor::im2row_packed(image.data(), g.c, g.h, g.w, g.k, g.stride, g.pad,
                          rows.data());
    tensor::im2col_packed(image.data(), g.c, g.h, g.w, g.k, g.stride, g.pad,
                          cols.data());
    using tensor::gemm::kMR;
    std::vector<real> want_rows(rows.size(), 0.0), want_cols(cols.size(), 0.0);
    for (index_t kk = 0; kk < taps; ++kk) {
      for (index_t p = 0; p < pix; ++p) {
        const real v = expected[kk * pix + p];
        want_rows[(p / kMR * taps + kk) * kMR + p % kMR] = v;
        want_cols[(kk / kMR * pix + p) * kMR + kk % kMR] = v;
      }
    }
    EXPECT_TRUE(bits_equal(want_rows, rows)) << "im2row " << describe(g);
    EXPECT_TRUE(bits_equal(want_cols, cols)) << "im2col " << describe(g);
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

// ---- Conv2d on packed panels ------------------------------------------------
//
// Conv2d lowers each sample straight into packed panels and runs its
// forward and weight-gradient products with the roles swapped (outᵀ =
// colsᵀ·Wᵀ, gWᵀ = cols·gyᵀ). These references run the layer in the
// orientation it had before: a test-local im2col, then gemm::naive's
// W·cols and gy·colsᵀ per sample, the bias added after the chain, the
// per-sample tiles folded in ascending sample order, and the input gradient
// as Wᵀ·gy folded by the element-wise col2im. Forward, backward_params and
// backward must match them bit for bit, on the blocked and naive paths,
// at 1 and 8 threads.

struct ConvCase {
  index_t c, out, k, stride, pad;
};

struct ConvBits {
  std::vector<real> y, grad_w, grad_b, grad_x;
};

ConvBits conv_reference(const ConvCase& cc, const std::vector<real>& x,
                        index_t batch, index_t h, index_t w,
                        const std::vector<real>& weight,
                        const std::vector<real>& bias,
                        const std::vector<real>& gy) {
  const ConvGeometry g{cc.c, h, w, cc.k, cc.stride, cc.pad};
  const index_t pix = out_extent(h, cc.k, cc.stride, cc.pad) *
                      out_extent(w, cc.k, cc.stride, cc.pad);
  const index_t taps = cc.c * cc.k * cc.k, x_size = cc.c * h * w;
  ConvBits out;
  out.y.assign(batch * cc.out * pix, 0.0);
  out.grad_w.assign(cc.out * taps, 0.0);
  out.grad_b.assign(cc.out, 0.0);
  out.grad_x.assign(batch * x_size, 0.0);
  std::vector<real> cols(taps * pix), tile(cc.out * taps), gcols(taps * pix);
  for (index_t n = 0; n < batch; ++n) {
    im2col_reference(x.data() + n * x_size, g, cols.data());
    real* y_n = out.y.data() + n * cc.out * pix;
    tensor::gemm::naive(Variant::NN, cc.out, taps, pix, weight.data(),
                        cols.data(), y_n);
    for (index_t o = 0; o < cc.out; ++o)
      for (index_t p = 0; p < pix; ++p) y_n[o * pix + p] += bias[o];
    const real* gy_n = gy.data() + n * cc.out * pix;
    std::fill(tile.begin(), tile.end(), 0.0);
    tensor::gemm::naive(Variant::NT, cc.out, pix, taps, gy_n, cols.data(),
                        tile.data());
    for (index_t i = 0; i < tile.size(); ++i) out.grad_w[i] += tile[i];
    for (index_t o = 0; o < cc.out; ++o) {
      real s = 0.0;
      for (index_t p = 0; p < pix; ++p) s += gy_n[o * pix + p];
      out.grad_b[o] += s;
    }
    std::fill(gcols.begin(), gcols.end(), 0.0);
    tensor::gemm::naive(Variant::TN, taps, cc.out, pix, weight.data(), gy_n,
                        gcols.data());
    col2im_reference(gcols.data(), g, out.grad_x.data() + n * x_size);
  }
  return out;
}

std::vector<real> values_of(const tensor::Tensor& t) {
  return {t.data().begin(), t.data().end()};
}

/// Every case of one kernel extent: C_in ∈ {1,3,8} × out ∈ {1,5,8,16,17} ×
/// stride ∈ {1,2} × pad ∈ {0,1,2} on a 7×5 image (batch 3), whose output
/// pixel counts (35, 12, 63, 8, 4, 20, ...) are mostly not multiples of 6.
void expect_conv_matches_reference(index_t k) {
  KernelEnvGuard guard;
  const index_t batch = 3, h = 7, w = 5;
  common::Rng rng(0xC0B0u + k);
  for (const index_t c : {1, 3, 8}) {
    for (const index_t out : {1, 5, 8, 16, 17}) {
      for (const index_t stride : {1, 2}) {
        for (const index_t pad : {0, 1, 2}) {
          if (h + 2 * pad < k || w + 2 * pad < k) continue;
          const ConvCase cc{c, out, k, stride, pad};
          common::Rng init = rng.split(c * 1000 + out * 10 + stride * 3 + pad);
          nn::Conv2d conv(c, out, k, stride, pad, init);
          for (auto& v : conv.bias().value.data()) v = rng.uniform(-1.0, 1.0);
          tensor::Tensor x({batch, c, h, w});
          for (auto& v : x.data()) v = rng.uniform(-1.0, 1.0);
          const index_t oh = out_extent(h, k, stride, pad);
          const index_t ow = out_extent(w, k, stride, pad);
          tensor::Tensor gy({batch, out, oh, ow});
          for (auto& v : gy.data()) v = rng.uniform(-1.0, 1.0);
          const ConvBits want = conv_reference(
              cc, values_of(x), batch, h, w, values_of(conv.weight().value),
              values_of(conv.bias().value), values_of(gy));
          for (const bool naive : {false, true}) {
            for (const int threads : {1, 8}) {
              tensor::gemm::set_naive(naive);
              runtime::set_num_threads(threads);
              std::ostringstream at;
              at << "C" << c << " out" << out << " k" << k << " s" << stride
                 << " p" << pad << (naive ? " naive " : " ") << threads
                 << " threads";
              conv.zero_grad();
              EXPECT_TRUE(bits_equal(values_of(conv.forward(x, true)), want.y))
                  << "forward " << at.str();
              conv.backward_params(gy);
              EXPECT_TRUE(
                  bits_equal(values_of(conv.weight().grad), want.grad_w))
                  << "backward_params grad_w " << at.str();
              EXPECT_TRUE(bits_equal(values_of(conv.bias().grad), want.grad_b))
                  << "backward_params grad_b " << at.str();
              conv.zero_grad();
              EXPECT_TRUE(bits_equal(values_of(conv.backward(gy)), want.grad_x))
                  << "backward grad_x " << at.str();
              EXPECT_TRUE(
                  bits_equal(values_of(conv.weight().grad), want.grad_w))
                  << "backward grad_w " << at.str();
              EXPECT_TRUE(bits_equal(values_of(conv.bias().grad), want.grad_b))
                  << "backward grad_b " << at.str();
            }
          }
        }
      }
    }
  }
}

TEST(ConvPacked, Kernel1MatchesIm2colReference) {
  expect_conv_matches_reference(1);
}

TEST(ConvPacked, Kernel3MatchesIm2colReference) {
  expect_conv_matches_reference(3);
}

TEST(ConvPacked, Kernel5MatchesIm2colReference) {
  expect_conv_matches_reference(5);
}

TEST(ConvPacked, RunPackedCountsOneCallPerProduct) {
  KernelEnvGuard guard;
  struct MetricsGuard {
    ~MetricsGuard() { obs::set_kernel_metrics(false); }
  } metrics_guard;
  obs::set_kernel_metrics(true);
  obs::Counter& calls = obs::counter("kernel.gemm.calls");
  obs::Counter& flops = obs::counter("kernel.gemm.flops");
  common::Rng rng(0x9AC4u);
  const index_t m = 13, k = 11, n = 17;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  // Pack A by hand and B through pack_b: the layout gemm.h documents.
  using tensor::gemm::kMR;
  std::vector<real> ap(tensor::gemm::packed_a_size(m, k), 0.0);
  for (index_t i = 0; i < m; ++i)
    for (index_t kk = 0; kk < k; ++kk)
      ap[((i / kMR) * k + kk) * kMR + i % kMR] = a[i * k + kk];
  std::vector<real> bp(tensor::gemm::packed_b_size(k, n));
  tensor::gemm::pack_b(Variant::NN, k, n, b.data(), bp.data());
  const auto want = run_gemm(tensor::gemm::naive, Variant::NN, m, k, n, a, b);
  for (const bool naive : {false, true}) {
    tensor::gemm::set_naive(naive);
    calls.reset();
    flops.reset();
    std::vector<real> c(m * n, 0.0);
    tensor::gemm::run_packed(m, k, n, ap.data(), bp.data(), c.data());
    EXPECT_TRUE(bits_equal(c, want)) << (naive ? "naive" : "blocked");
    EXPECT_EQ(calls.value(), 1u);
    EXPECT_EQ(flops.value(),
              static_cast<std::uint64_t>(tensor::gemm::flops(m, k, n)));
  }
}

TEST(ConvPacked, RunPackedPathsAgreeWhereZerosMeetInfAndNaN) {
  // A zero column of A (a padding tap) meets Inf and NaN in B (a diverged
  // weight): the register kernel computes 0·Inf = NaN, and the oracle must
  // too, not skip the zero term.
  KernelEnvGuard guard;
  common::Rng rng(0x1CF0u);
  const index_t m = 7, k = 5, n = 9, zero_tap = 2;
  auto a = random_vec(m * k, rng);
  auto b = random_vec(k * n, rng);
  for (index_t i = 0; i < m; ++i) a[i * k + zero_tap] = 0.0;
  b[zero_tap * n + 1] = std::numeric_limits<real>::infinity();
  b[zero_tap * n + 4] = -std::numeric_limits<real>::infinity();
  b[zero_tap * n + 6] = std::numeric_limits<real>::quiet_NaN();
  using tensor::gemm::kMR;
  std::vector<real> ap(tensor::gemm::packed_a_size(m, k), 0.0);
  for (index_t i = 0; i < m; ++i)
    for (index_t kk = 0; kk < k; ++kk)
      ap[((i / kMR) * k + kk) * kMR + i % kMR] = a[i * k + kk];
  std::vector<real> bp(tensor::gemm::packed_b_size(k, n));
  tensor::gemm::pack_b(Variant::NN, k, n, b.data(), bp.data());
  std::vector<real> c[2];
  for (const bool naive : {false, true}) {
    tensor::gemm::set_naive(naive);
    c[naive] = std::vector<real>(m * n, 0.0);
    tensor::gemm::run_packed(m, k, n, ap.data(), bp.data(), c[naive].data());
  }
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      const real blocked = c[0][i * n + j], naive = c[1][i * n + j];
      const bool poisoned = j == 1 || j == 4 || j == 6;
      EXPECT_EQ(std::isnan(blocked), poisoned) << i << "," << j;
      EXPECT_EQ(std::isnan(naive), poisoned) << i << "," << j;
      if (!poisoned) {
        EXPECT_TRUE(bits_equal({blocked}, {naive})) << i << "," << j;
      }
    }
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

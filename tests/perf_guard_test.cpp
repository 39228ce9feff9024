// Opt-in performance guards for the blocked GEMM kernel family.
//
// Skipped unless OASIS_PERF_GUARD=1: wall-clock assertions are inherently
// machine-sensitive, so they run as a dedicated ci.sh stage (`./ci.sh perf`)
// on quiet hardware rather than inside the default suite. The floors are
// deliberately loose so only a real regression — packing gone quadratic, a
// microkernel de-vectorized, dispatch falling through to the wrong family —
// trips them:
//   * per ISA: blocked must beat the naive oracle by ≥1.5× on a 512³
//     multiply (observed margins 2.7–5.5×). Every ISA available on the host
//     is swept; AVX2/NEON floors self-skip where the kernels cannot run.
//   * round conv shapes: the dispatched ISA's blocked kernel must run the
//     MiniConvNet conv GEMMs (m = 8, 16, 27, 72: mostly ragged tiles) at
//     ≥0.8× scalar's GF/s. The cubes above never exercise that path.
//   * integrity path: the dispatched crc32c must checksum a 6.3 MB buffer
//     (the socket_mlp update size) at ≥5 GB/s where SSE4.2 runs (observed
//     13–17 GB/s; the portable slice-by-4 walk manages ~0.8). Self-skips
//     on hosts without SSE4.2.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/crc32c_detail.h"
#include "common/rng.h"
#include "runtime/parallel.h"
#include "tensor/gemm/gemm.h"

namespace oasis {
namespace {

using tensor::gemm::Isa;
using tensor::gemm::Variant;
using Clock = std::chrono::steady_clock;

bool guard_enabled() {
  const char* env = std::getenv("OASIS_PERF_GUARD");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

#define OASIS_REQUIRE_PERF_GUARD()                                 \
  do {                                                             \
    if (!guard_enabled()) {                                        \
      GTEST_SKIP() << "set OASIS_PERF_GUARD=1 to run wall-clock "  \
                      "guards";                                    \
    }                                                              \
  } while (0)

/// Restores the dispatched ISA and thread count after each guard.
struct PerfEnvGuard {
  Isa saved = tensor::gemm::active_isa();
  ~PerfEnvGuard() {
    tensor::gemm::set_isa(saved);
    runtime::set_num_threads(0);
  }
};

double best_of_3(const std::function<void()>& fn) {
  double best = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    fn();
    const std::chrono::duration<double> dt = Clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

struct GemmFixture {
  index_t n;
  std::vector<real> a, b, c;
  explicit GemmFixture(index_t n_) : n(n_), a(n * n), b(n * n), c(n * n) {
    common::Rng rng(0xBE7Cu);
    for (auto& v : a) v = rng.uniform(-1.0, 1.0);
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  }
  double time_naive() {
    return best_of_3([this] {
      std::fill(c.begin(), c.end(), 0.0);
      tensor::gemm::naive(Variant::NN, n, n, n, a.data(), b.data(), c.data());
    });
  }
  double time_blocked() {
    return best_of_3([this] {
      std::fill(c.begin(), c.end(), 0.0);
      tensor::gemm::blocked(Variant::NN, n, n, n, a.data(), b.data(),
                            c.data());
    });
  }
};

/// The per-ISA floor: blocked ≥1.5× the naive oracle.
void expect_blocked_beats_naive(Isa isa) {
  PerfEnvGuard guard;
  tensor::gemm::set_isa(isa);
  runtime::set_num_threads(0);  // hardware default, as in production runs
  GemmFixture fx(512);
  const double naive_s = fx.time_naive();
  const double blocked_s = fx.time_blocked();
  const double speedup = naive_s / blocked_s;
  ::testing::Test::RecordProperty("naive_seconds", std::to_string(naive_s));
  ::testing::Test::RecordProperty("blocked_seconds",
                                  std::to_string(blocked_s));
  ::testing::Test::RecordProperty("speedup", std::to_string(speedup));
  EXPECT_GE(speedup, 1.5)
      << tensor::gemm::isa_name(isa) << " blocked GEMM regressed: naive "
      << naive_s << "s vs blocked " << blocked_s << "s";
}

class PerfGuardIsa : public ::testing::TestWithParam<Isa> {};

TEST_P(PerfGuardIsa, BlockedBeatsNaiveOn512CubeF64) {
  OASIS_REQUIRE_PERF_GUARD();
  expect_blocked_beats_naive(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Isas, PerfGuardIsa,
    ::testing::ValuesIn(tensor::gemm::available_isas()),
    [](const ::testing::TestParamInfo<Isa>& info) {
      return std::string(tensor::gemm::isa_name(info.param));
    });

// Unavailable ISAs cannot be timed on this host; record the self-skip
// explicitly so a CI log shows WHY an ISA's floor did not run.
TEST(PerfGuard, UnavailableIsaFloorsSelfSkip) {
  OASIS_REQUIRE_PERF_GUARD();
  std::string skipped;
  for (const Isa isa : {Isa::kAvx2, Isa::kNeon}) {
    if (!tensor::gemm::isa_available(isa)) {
      skipped += skipped.empty() ? "" : ",";
      skipped += tensor::gemm::isa_name(isa);
    }
  }
  if (!skipped.empty()) {
    GTEST_SKIP() << "ISA floors not runnable on this host: " << skipped;
  }
}

/// Per-call seconds of the blocked GEMM for one shape under the scalar ISA
/// and under `active`, each the best of 5 batches of back-to-back calls.
/// Batching lifts a ~20 µs conv GEMM well above timer resolution;
/// alternating the two ISAs' batches keeps a frequency or load shift on the
/// host from landing on only one side of the ratio.
std::pair<double, double> time_vs_scalar(Isa active, Variant v, index_t m,
                                         index_t k, index_t n) {
  constexpr int kCalls = 200;
  common::Rng rng(0x5AAEu);
  std::vector<real> a(m * k), b(k * n), c(m * n, 0.0);
  for (auto& x : a) x = rng.uniform(-1.0, 1.0);
  for (auto& x : b) x = rng.uniform(-1.0, 1.0);
  const auto batch = [&](Isa isa) {
    tensor::gemm::set_isa(isa);
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      tensor::gemm::blocked(v, m, k, n, a.data(), b.data(), c.data());
    }
    const std::chrono::duration<double> dt = Clock::now() - t0;
    return dt.count() / kCalls;
  };
  double best_scalar = 1e9, best_active = 1e9;
  for (int round = 0; round < 5; ++round) {
    best_scalar = std::min(best_scalar, batch(Isa::kScalar));
    best_active = std::min(best_active, batch(active));
  }
  return {best_scalar, best_active};
}

/// The round's conv GEMMs: the dispatched ISA must run MiniConvNet's
/// per-sample conv0 (8×27×576) and conv1 (16×72×144) NN/NT/TN shapes at
/// ≥0.8× the scalar kernel's GF/s. Their small m leaves most register tiles
/// ragged; when those fell back to generic_tile the AVX2 path ran at ~0.33×
/// scalar, a loss the square-cube floors above never saw.
TEST(PerfGuard, ActiveIsaKeepsUpWithScalarOnConvShapes) {
  OASIS_REQUIRE_PERF_GUARD();
  PerfEnvGuard guard;
  const Isa active = guard.saved;
  if (active == Isa::kScalar) {
    GTEST_SKIP() << "the dispatched ISA is scalar; nothing to compare";
  }
  struct ConvShape {
    const char* name;
    Variant v;
    index_t m, k, n;
  };
  const ConvShape shapes[] = {
      {"conv0_fwd", Variant::NN, 8, 27, 576},
      {"conv0_grad_w", Variant::NT, 8, 576, 27},
      {"conv0_grad_x", Variant::TN, 27, 8, 576},
      {"conv1_fwd", Variant::NN, 16, 72, 144},
      {"conv1_grad_w", Variant::NT, 16, 144, 72},
      {"conv1_grad_x", Variant::TN, 72, 16, 144},
  };
  runtime::set_num_threads(1);
  for (const ConvShape& s : shapes) {
    const auto [scalar_s, active_s] =
        time_vs_scalar(active, s.v, s.m, s.k, s.n);
    const double ratio = scalar_s / active_s;
    RecordProperty(std::string(s.name) + "_vs_scalar", std::to_string(ratio));
    EXPECT_GE(ratio, 0.8)
        << s.name << ": " << tensor::gemm::isa_name(active) << " blocked "
        << active_s * 1e6 << " us vs scalar " << scalar_s * 1e6
        << " us per GEMM";
  }
}

TEST(PerfGuard, Crc32cSse42AtLeast5GBpsOn6MB) {
  OASIS_REQUIRE_PERF_GUARD();
  if (!common::detail::sse42_supported()) {
    GTEST_SKIP() << "SSE4.2 CRC32C unavailable on this host";
  }
  constexpr int kPasses = 8;
  std::vector<std::uint8_t> buf(6'300'000);
  common::Rng rng(0xC5Cu);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  // Each pass continues from the previous CRC, so no pass can be elided.
  std::uint32_t crc = 0;
  const double seconds = best_of_3([&] {
    for (int pass = 0; pass < kPasses; ++pass) {
      crc = common::crc32c(buf.data(), buf.size(), crc);
    }
  });
  const double gb_per_s = kPasses * static_cast<double>(buf.size()) /
                          seconds / 1e9;
  RecordProperty("crc32c_gb_per_s", std::to_string(gb_per_s));
  RecordProperty("crc", std::to_string(crc));
  EXPECT_GE(gb_per_s, 5.0) << "CRC32C integrity path regressed: " << gb_per_s
                           << " GB/s on a 6.3 MB buffer";
}

}  // namespace
}  // namespace oasis

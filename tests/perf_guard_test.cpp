// Opt-in performance guards for the blocked GEMM kernel, CRC32C and the
// server's update screen.
//
// Skipped unless OASIS_PERF_GUARD=1: wall-clock assertions are inherently
// machine-sensitive, so they run as a dedicated ci.sh stage (`./ci.sh perf`)
// on quiet hardware rather than inside the default suite. The floors are
// deliberately loose so only a real regression — packing gone quadratic, a
// register kernel de-vectorized or silently replaced by the naive fallback —
// trips them:
//   * blocked must beat the naive oracle by ≥1.5× on a 512³ multiply
//     (observed margins 2.7–5.5×).
//   * integrity path: the dispatched crc32c must checksum a 6.3 MB buffer
//     (the socket_mlp update size) at ≥5 GB/s where SSE4.2 runs (observed
//     13–17 GB/s; the portable slice-by-4 walk manages ~0.8). Self-skips
//     on hosts without SSE4.2.
//   * the server's screen of one 6.3 MB socket_mlp update with no norm
//     bound (the CRC, the structure walk and the finite check, no Σ v²
//     chain) must run at ≥6 GB/s (observed 12.5–12.9; ~3.4 with the chain).
//     Self-skips without SSE4.2, as the CRC guard does.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/crc32c_detail.h"
#include "common/rng.h"
#include "fl/server.h"
#include "nn/models.h"
#include "runtime/parallel.h"
#include "tensor/gemm/gemm.h"
#include "tensor/serialize.h"

namespace oasis {
namespace {

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

TEST(PerfGuard, BlockedBeatsNaiveOn512CubeF64) {
  OASIS_REQUIRE_PERF_GUARD();
  runtime::set_num_threads(0);  // hardware default, as in production runs
  GemmFixture fx(512);
  const double naive_s = fx.time_naive();
  const double blocked_s = fx.time_blocked();
  const double speedup = naive_s / blocked_s;
  RecordProperty("naive_seconds", std::to_string(naive_s));
  RecordProperty("blocked_seconds", std::to_string(blocked_s));
  RecordProperty("speedup", std::to_string(speedup));
  EXPECT_GE(speedup, 1.5) << "blocked GEMM regressed: naive " << naive_s
                          << "s vs blocked " << blocked_s << "s";
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

TEST(PerfGuard, UnboundedScreenAtLeast6GBpsOn6MB) {
  OASIS_REQUIRE_PERF_GUARD();
  if (!common::detail::sse42_supported()) {
    GTEST_SKIP() << "SSE4.2 CRC32C unavailable on this host";
  }
  constexpr int kPasses = 8;
  common::Rng rng(0x5C4Eu);
  // The socket_mlp model: MLP 3072-256-10, 789,258 parameters.
  fl::Server server(nn::make_mlp({3, 32, 32}, {256}, 10, rng), 0.1);
  std::vector<tensor::Tensor> grads;
  for (auto* p : server.global_model().parameters()) {
    grads.push_back(tensor::Tensor::randn(p->value.shape(), rng));
  }
  fl::ClientUpdateMessage update;
  update.num_examples = 1;
  update.gradients = tensor::serialize_tensors(grads);
  bool accepted = true;
  const double seconds = best_of_3([&] {
    for (int pass = 0; pass < kPasses; ++pass) {
      fl::UpdateScreen screen = server.begin_screen();
      const fl::RejectReason reason = server.screen_update(update, screen);
      accepted = accepted && reason == fl::RejectReason::kAccepted;
    }
  });
  ASSERT_TRUE(accepted);
  const double gb_per_s = kPasses *
                          static_cast<double>(update.gradients.size()) /
                          seconds / 1e9;
  RecordProperty("screen_gb_per_s", std::to_string(gb_per_s));
  EXPECT_GE(gb_per_s, 6.0) << "unbounded update screen regressed: "
                           << gb_per_s << " GB/s on a 6.3 MB update";
}

}  // namespace
}  // namespace oasis

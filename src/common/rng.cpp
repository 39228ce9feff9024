#include "common/rng.h"

#include <cmath>

#include "common/error.h"

namespace oasis::common {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

Rng Rng::split(std::uint64_t stream_id) {
  // Mix a fresh draw with the stream id through SplitMix64 to seed the child.
  std::uint64_t s = (*this)() ^ (stream_id * 0xD2B74407B1CE6E93ULL + 1);
  return Rng(splitmix64(s));
}

real Rng::uniform(real lo, real hi) {
  // 53-bit mantissa yields uniform double in [0, 1).
  const real u01 =
      static_cast<real>((*this)() >> 11) * 0x1.0p-53;
  // Spelled as one fused multiply-add so the bytes do not depend on whether
  // the compiler contracts `lo + (hi - lo) * u01` (it does under
  // -march=native on an FMA host, and cannot in a portable build).
  return std::fma(hi - lo, u01, lo);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  OASIS_CHECK_MSG(lo <= hi, "uniform_int: lo=" << lo << " > hi=" << hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % range;
  std::uint64_t draw;
  do {
    draw = (*this)();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % range);
}

real Rng::normal(real mean, real stddev) {
  // The multiply-adds are spelled as the fused operations -march=native
  // contracts them to, so the draws do not depend on the build's flags
  // (see uniform()).
  if (has_spare_) {
    has_spare_ = false;
    return std::fma(stddev, spare_normal_, mean);
  }
  real u = 0.0, v = 0.0, s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = std::fma(u, u, v * v);
  } while (s >= 1.0 || s == 0.0);
  const real factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_ = true;
  return std::fma(stddev * u, factor, mean);
}

bool Rng::bernoulli(real p) { return uniform() < p; }

std::vector<index_t> Rng::sample_without_replacement(index_t n, index_t k) {
  OASIS_CHECK_MSG(k <= n, "cannot sample " << k << " from " << n);
  std::vector<index_t> all(n);
  for (index_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher–Yates: only the first k positions need to be finalized.
  for (index_t i = 0; i < k; ++i) {
    const auto j = static_cast<index_t>(
        uniform_int(static_cast<std::int64_t>(i),
                    static_cast<std::int64_t>(n - 1)));
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

real inverse_normal_cdf(real p) {
  OASIS_CHECK_MSG(p > 0.0 && p < 1.0, "inverse_normal_cdf: p=" << p);
  // Acklam's algorithm.
  static constexpr real a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                               -2.759285104469687e+02, 1.383577518672690e+02,
                               -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr real b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                               -1.556989798598866e+02, 6.680131188771972e+01,
                               -1.328068155288572e+01};
  static constexpr real c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                               -2.400758277161838e+00, -2.549732539343734e+00,
                               4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr real d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                               2.445134137142996e+00, 3.754408661907416e+00};
  constexpr real p_low = 0.02425;
  constexpr real p_high = 1.0 - p_low;

  real x = 0.0;
  if (p < p_low) {
    const real q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= p_high) {
    const real q = p - 0.5;
    const real r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const real q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step for ~1e-15 accuracy.
  const real e = normal_cdf(x) - p;
  const real u = e * std::sqrt(2.0 * 3.14159265358979323846) *
                 std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

real normal_cdf(real x) {
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

}  // namespace oasis::common

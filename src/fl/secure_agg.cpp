#include "fl/secure_agg.h"

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"

namespace oasis::fl {
namespace {

/// Seed shared by the pair {a, b} for one round (symmetric in a, b).
std::uint64_t pair_seed(std::uint64_t a, std::uint64_t b,
                        std::uint64_t nonce) {
  const std::uint64_t lo = std::min(a, b), hi = std::max(a, b);
  // SplitMix-style mixing of (lo, hi, nonce).
  std::uint64_t x = lo * 0x9E3779B97F4A7C15ULL ^ (hi + 0x7F4A7C15U) ^
                    (nonce * 0xBF58476D1CE4E5B9ULL + 0x94D049BB);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  return x;
}

}  // namespace

SecureAggregationSession::SecureAggregationSession(
    std::vector<std::uint64_t> cohort, std::uint64_t round_nonce)
    : cohort_(std::move(cohort)), round_nonce_(round_nonce) {
  OASIS_CHECK_MSG(cohort_.size() >= 2,
                  "secure aggregation needs a cohort of >= 2");
  auto sorted = cohort_;
  std::sort(sorted.begin(), sorted.end());
  OASIS_CHECK_MSG(std::adjacent_find(sorted.begin(), sorted.end()) ==
                      sorted.end(),
                  "duplicate client id in cohort");
}

std::vector<tensor::Tensor> SecureAggregationSession::mask_for(
    std::uint64_t client_id, const std::vector<tensor::Shape>& shapes) const {
  OASIS_CHECK_MSG(std::find(cohort_.begin(), cohort_.end(), client_id) !=
                      cohort_.end(),
                  "client " << client_id << " not in cohort");
  std::vector<tensor::Tensor> mask;
  mask.reserve(shapes.size());
  for (const auto& shape : shapes) mask.emplace_back(shape);

  for (const auto peer : cohort_) {
    if (peer == client_id) continue;
    // The lower id adds, the higher subtracts; both draw the identical
    // stream, so the pair's contributions cancel exactly in the sum.
    const real sign = client_id < peer ? 1.0 : -1.0;
    common::Rng prg(pair_seed(client_id, peer, round_nonce_));
    for (auto& m : mask) {
      for (auto& v : m.data()) v += sign * prg.normal(0.0, 1.0);
    }
  }
  return mask;
}

}  // namespace oasis::fl

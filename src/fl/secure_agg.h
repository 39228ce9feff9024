// Pairwise-masking secure aggregation (Bonawitz et al. 2017, simplified to
// the honest-connectivity case: no dropout recovery shares).
//
// Every unordered pair {i, j} of cohort members derives a shared PRG seed;
// the lower id adds the pairwise mask to its update, the higher id subtracts
// it. An individual masked update is statistically masked white noise, but
// the SUM over the cohort telescopes to the sum of true updates — the server
// learns only the aggregate.
//
// This exists to reproduce the paper's threat-model context: secure
// aggregation looks like it blocks per-client gradient inversion, yet a
// dishonest server circumvents it with INCONSISTENT models (Pasquini et al.
// 2022) — see fl/inconsistent_server.h and the ablation_secagg bench. OASIS
// protects the victim even there, because its guarantee lives in the
// gradients themselves rather than in who can read them.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace oasis::fl {

/// One round's masking session for a fixed cohort.
class SecureAggregationSession {
 public:
  /// `cohort` lists the round's participating client ids (order
  /// irrelevant); `round_nonce` domain-separates rounds so masks never
  /// repeat.
  SecureAggregationSession(std::vector<std::uint64_t> cohort,
                           std::uint64_t round_nonce);

  /// The net pairwise mask client `client_id` adds to its update tensors
  /// (same shapes as `shapes`). Deterministic in (cohort, nonce, id). The
  /// defense stack's mask stage (fl::SecAggMaskDefense) adds it to the
  /// gradient tensors before the update is serialized.
  [[nodiscard]] std::vector<tensor::Tensor> mask_for(
      std::uint64_t client_id,
      const std::vector<tensor::Shape>& shapes) const;

 private:
  std::vector<std::uint64_t> cohort_;
  std::uint64_t round_nonce_;
};

}  // namespace oasis::fl

// Scoring reconstructions against ground truth — the paper's PSNR protocol.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace oasis::attack {

/// Best reconstruction found for one original image.
struct ImageScore {
  index_t original_index = 0;
  /// PSNR (dB) of the best-matching candidate (−inf if no candidates).
  real best_psnr = 0.0;
  /// Index into the candidate list of that best match.
  index_t best_candidate = 0;
};

/// For every original, finds the candidate with maximum PSNR (candidates are
/// clamped to [0,1] first, as the breaching framework does before scoring).
/// Candidates containing non-finite values are skipped. Returns one score
/// per original; when no valid candidate exists best_psnr is 0.
std::vector<ImageScore> best_match_psnr(
    const std::vector<tensor::Tensor>& candidates,
    const std::vector<tensor::Tensor>& originals);

}  // namespace oasis::attack

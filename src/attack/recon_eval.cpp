#include "attack/recon_eval.h"

#include <cmath>

#include "common/error.h"
#include "data/image.h"
#include "metrics/psnr.h"
#include "obs/obs.h"

namespace oasis::attack {

/// A best-match PSNR at or above this is a verbatim pixel copy (the paper's
/// 130–145 dB signature, with headroom for small batches): the structured
/// counterpart of the old printf tallies.
constexpr real kVerbatimLeakDb = 90.0;

namespace {

bool all_finite(const tensor::Tensor& t) {
  for (const auto v : t.data()) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

std::vector<ImageScore> best_match_psnr(
    const std::vector<tensor::Tensor>& candidates,
    const std::vector<tensor::Tensor>& originals) {
  OASIS_CHECK_MSG(!originals.empty(), "scoring against zero originals");

  std::vector<tensor::Tensor> clamped;
  clamped.reserve(candidates.size());
  std::vector<index_t> candidate_ids;
  for (index_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].shape() != originals.front().shape()) continue;
    if (!all_finite(candidates[i])) continue;
    clamped.push_back(data::clamp01(candidates[i]));
    candidate_ids.push_back(i);
  }

  static obs::Counter& images = obs::counter("attack.recon.images_scored");
  static obs::Counter& cands = obs::counter("attack.recon.candidates_valid");
  static obs::Counter& dropped = obs::counter("attack.recon.candidates_dropped");
  static obs::Counter& verbatim = obs::counter("attack.recon.leaks_verbatim");
  cands.add(clamped.size());
  dropped.add(candidates.size() - clamped.size());

  std::vector<ImageScore> scores;
  scores.reserve(originals.size());
  for (index_t o = 0; o < originals.size(); ++o) {
    ImageScore score;
    score.original_index = o;
    score.best_psnr = 0.0;
    for (index_t c = 0; c < clamped.size(); ++c) {
      const real value = metrics::psnr(clamped[c], originals[o]);
      if (value > score.best_psnr) {
        score.best_psnr = value;
        score.best_candidate = candidate_ids[c];
      }
    }
    images.add(1);
    if (score.best_psnr >= kVerbatimLeakDb) verbatim.add(1);
    scores.push_back(score);
  }
  return scores;
}

}  // namespace oasis::attack

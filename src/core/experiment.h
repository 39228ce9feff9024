// Attack-vs-defense experiment harness.
//
// This is the shared engine behind every attack figure (3, 4, 9, 10, 13 and
// the visual panels 2, 5-8, 11-12): it stands up a real FL round — dishonest
// server, victim client, serialized messages — runs the chosen attack for a
// number of rounds, and scores reconstructions against the victim's
// pre-augmentation batch with the paper's best-match PSNR protocol.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "attack/recon_eval.h"
#include "augment/transforms.h"
#include "data/dataset.h"
#include "fl/defense.h"
#include "tensor/tensor.h"

namespace oasis::core {

enum class AttackKind { kRtf, kCah, kLinear };

std::string to_string(AttackKind kind);
AttackKind parse_attack_kind(const std::string& name);

struct AttackExperimentConfig {
  AttackKind attack = AttackKind::kRtf;
  /// Victim batch size B (the paper evaluates 8 and 64).
  index_t batch_size = 8;
  /// Attacked neurons n (ignored for the linear model, which uses one neuron
  /// per class by construction).
  index_t neurons = 256;
  /// Fresh victim batches to attack; PSNRs aggregate over all of them.
  index_t num_batches = 8;
  /// OASIS transform set; empty = undefended baseline (WO).
  std::vector<augment::TransformKind> transforms;
  /// Optional victim defense stack: DP is clip,noise; pruning is topk.
  fl::DefenseStackPtr defense;
  /// Classes of the classification head.
  index_t classes = 10;
  std::uint64_t seed = 99;
  /// Keep the first round's originals and their best-matching
  /// reconstructions for visual output (Figures 2, 5-8, 11-12).
  bool collect_visuals = false;
};

struct AttackExperimentResult {
  /// Best-match PSNR of every original image across all batches — the raw
  /// sample behind one box of the paper's box plots.
  std::vector<real> per_image_psnr;
  /// Present when collect_visuals: the first batch's originals and the
  /// best-matching reconstruction for each (clamped to [0,1]).
  std::vector<tensor::Tensor> visual_originals;
  std::vector<tensor::Tensor> visual_reconstructions;
  /// Mean local loss observed by the victim (sanity signal that training
  /// still functions under the implant).
  real mean_client_loss = 0.0;

  [[nodiscard]] real mean_psnr() const;
};

/// Runs the experiment. `victim_data` is the targeted user's local dataset;
/// `aux_data` is the attacker-side public calibration sample (disjoint from
/// the victim's data in all benches).
AttackExperimentResult run_attack_experiment(
    const data::InMemoryDataset& victim_data,
    const data::InMemoryDataset& aux_data, const AttackExperimentConfig& cfg);

}  // namespace oasis::core

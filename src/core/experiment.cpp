#include "core/experiment.h"

#include <memory>

#include "attack/cah.h"
#include "attack/linear_inversion.h"
#include "attack/rtf.h"
#include "common/error.h"
#include "core/oasis.h"
#include "data/image.h"
#include "fl/client.h"
#include "fl/simulation.h"
#include "nn/models.h"

namespace oasis::core {

std::string to_string(AttackKind kind) {
  switch (kind) {
    case AttackKind::kRtf: return "RTF";
    case AttackKind::kCah: return "CAH";
    case AttackKind::kLinear: return "LinearInv";
  }
  return "?";
}

AttackKind parse_attack_kind(const std::string& name) {
  if (name == "RTF" || name == "rtf") return AttackKind::kRtf;
  if (name == "CAH" || name == "cah") return AttackKind::kCah;
  if (name == "LinearInv" || name == "linear") return AttackKind::kLinear;
  throw ConfigError("unknown attack: " + name);
}

real AttackExperimentResult::mean_psnr() const {
  OASIS_CHECK(!per_image_psnr.empty());
  real s = 0.0;
  for (const auto v : per_image_psnr) s += v;
  return s / static_cast<real>(per_image_psnr.size());
}

AttackExperimentResult run_attack_experiment(
    const data::InMemoryDataset& victim_data,
    const data::InMemoryDataset& aux_data,
    const AttackExperimentConfig& cfg) {
  OASIS_CHECK(!victim_data.empty() && !aux_data.empty());
  tensor::check_same_shape(victim_data.image_shape(), aux_data.image_shape(),
                           "victim vs aux image shape");
  const auto& ishape = victim_data.image_shape();
  const nn::ImageSpec spec{ishape[0], ishape[1], ishape[2]};
  const index_t classes = cfg.classes;

  // --- Attack object -------------------------------------------------------
  std::unique_ptr<attack::ActiveAttack> atk;
  switch (cfg.attack) {
    case AttackKind::kRtf:
      atk = std::make_unique<attack::RtfAttack>(spec, cfg.neurons, aux_data);
      break;
    case AttackKind::kCah:
      atk = std::make_unique<attack::CahAttack>(
          spec, cfg.neurons, 1.0 / static_cast<real>(cfg.batch_size),
          aux_data, cfg.seed ^ 0xCA44);
      break;
    case AttackKind::kLinear:
      atk = std::make_unique<attack::LinearInversionAttack>(spec, classes);
      break;
  }

  // --- Federation: dishonest server + one victim client --------------------
  common::Rng model_rng(cfg.seed ^ 0x5EED);
  fl::ModelFactory factory;
  if (cfg.attack == AttackKind::kLinear) {
    factory = [spec, classes, &model_rng] {
      return nn::make_linear_model(spec, classes, model_rng);
    };
  } else {
    const index_t n = cfg.neurons;
    factory = [spec, classes, n, &model_rng] {
      return nn::make_attack_host(spec, n, classes, model_rng);
    };
  }

  auto server = std::make_unique<fl::MaliciousServer>(
      factory(), /*learning_rate=*/1e-3, atk->manipulator());
  auto* malicious_server = server.get();

  const bool linear = cfg.attack == AttackKind::kLinear;
  const auto sampling = linear ? fl::BatchSampling::kUniqueLabels
                               : fl::BatchSampling::kUniform;
  const auto loss_kind = linear ? fl::LossKind::kSigmoidBce
                                : fl::LossKind::kSoftmaxCrossEntropy;
  std::vector<std::unique_ptr<fl::Client>> clients;
  clients.push_back(std::make_unique<fl::Client>(
      /*id=*/0, victim_data, factory, cfg.batch_size,
      make_preprocessor(cfg.transforms), common::Rng(cfg.seed ^ 0xC11E),
      sampling, loss_kind));
  auto* victim = clients.front().get();

  fl::Simulation sim(std::move(server), std::move(clients),
                     fl::SimulationConfig{/*clients_per_round=*/1,
                                          /*seed=*/cfg.seed});
  sim.set_defense_stack(cfg.defense);

  // --- Attack rounds --------------------------------------------------------
  AttackExperimentResult result;
  real loss_sum = 0.0;
  for (index_t round = 0; round < cfg.num_batches; ++round) {
    sim.run_round();
    loss_sum += victim->last_loss();

    const auto& captured = malicious_server->captured();
    OASIS_CHECK(!captured.empty());
    const auto grads =
        tensor::deserialize_tensors(captured.back().gradients);
    const auto candidates = atk->reconstruct(grads);

    const auto originals = data::unstack_images(victim->last_raw_batch().images);
    const auto scores = attack::best_match_psnr(candidates, originals);
    for (const auto& s : scores) result.per_image_psnr.push_back(s.best_psnr);

    if (cfg.collect_visuals && round == 0) {
      result.visual_originals = originals;
      for (const auto& s : scores) {
        if (s.best_psnr > 0.0 && s.best_candidate < candidates.size()) {
          result.visual_reconstructions.push_back(
              data::clamp01(candidates[s.best_candidate]));
        } else {
          // No candidate matched at all — emit a black frame placeholder.
          result.visual_reconstructions.emplace_back(
              originals.front().shape());
        }
      }
    }
  }
  result.mean_client_loss =
      loss_sum / static_cast<real>(cfg.num_batches);
  return result;
}

}  // namespace oasis::core

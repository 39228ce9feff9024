// OASIS core tests: the defense preprocessor, the attack-experiment harness
// (integration: full FL round + attack + scoring), and the trainer.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/oasis.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "metrics/stats.h"
#include "nn/models.h"

namespace oasis::core {
namespace {

data::SynthDataset tiny_synth(index_t classes, index_t size,
                              index_t per_class, std::uint64_t seed) {
  data::SynthConfig cfg;
  cfg.num_classes = classes;
  cfg.height = cfg.width = size;
  cfg.train_per_class = per_class;
  cfg.test_per_class = 2;
  cfg.seed = seed;
  return data::generate(cfg);
}

TEST(OasisDefense, BuildsDPrime) {
  OasisDefense defense(OasisConfig{
      {augment::TransformKind::kMajorRotation,
       augment::TransformKind::kShear}});
  EXPECT_EQ(defense.name(), "oasis[MR+SH]");
  common::Rng rng(1);
  data::Batch batch{tensor::Tensor::rand({2, 3, 8, 8}, rng), {0, 1}};
  const data::Batch out = defense.process(batch, rng);
  // Integrated MR+SH: 3 rotations + 3 sheared rotations + 1 shear.
  EXPECT_EQ(out.size(), 2u * (1 + 7));
}

TEST(OasisDefense, MakePreprocessorFallsBackToIdentity) {
  auto id = make_preprocessor({});
  EXPECT_EQ(id->name(), "identity");
  auto mr = make_preprocessor({augment::TransformKind::kMajorRotation});
  EXPECT_EQ(mr->name(), "oasis[MR]");
}

TEST(Experiment, ParseAttackKinds) {
  EXPECT_EQ(parse_attack_kind("RTF"), AttackKind::kRtf);
  EXPECT_EQ(parse_attack_kind("cah"), AttackKind::kCah);
  EXPECT_EQ(parse_attack_kind("linear"), AttackKind::kLinear);
  EXPECT_THROW(parse_attack_kind("nope"), ConfigError);
  EXPECT_EQ(to_string(AttackKind::kCah), "CAH");
}

TEST(Experiment, RtfUndefendedVsDefendedGap) {
  // The paper's central claim as an integration test: mean best-match PSNR
  // without OASIS is enormous; with major rotation it collapses.
  auto victim = tiny_synth(10, 12, 4, 21).train;
  auto aux = tiny_synth(10, 12, 4, 22).train;

  AttackExperimentConfig cfg;
  cfg.attack = AttackKind::kRtf;
  cfg.batch_size = 4;
  cfg.neurons = 100;
  cfg.num_batches = 2;
  cfg.seed = 7;

  const auto undefended = run_attack_experiment(victim, aux, cfg);
  cfg.transforms = {augment::TransformKind::kMajorRotation};
  const auto defended = run_attack_experiment(victim, aux, cfg);

  ASSERT_EQ(undefended.per_image_psnr.size(), 8u);
  ASSERT_EQ(defended.per_image_psnr.size(), 8u);
  EXPECT_GT(undefended.mean_psnr(), 80.0);
  EXPECT_LT(defended.mean_psnr(), 40.0);
  EXPECT_GT(undefended.mean_psnr() - defended.mean_psnr(), 50.0);
}

TEST(Experiment, CahRunsAndDefenseHelps) {
  auto victim = tiny_synth(10, 12, 4, 23).train;
  auto aux = tiny_synth(10, 12, 4, 24).train;

  AttackExperimentConfig cfg;
  cfg.attack = AttackKind::kCah;
  cfg.batch_size = 4;
  cfg.neurons = 120;
  cfg.num_batches = 2;
  cfg.seed = 8;

  const auto undefended = run_attack_experiment(victim, aux, cfg);
  cfg.transforms = {augment::TransformKind::kMajorRotation,
                    augment::TransformKind::kShear};
  const auto defended = run_attack_experiment(victim, aux, cfg);
  EXPECT_GT(undefended.mean_psnr(), 70.0);
  EXPECT_LT(defended.mean_psnr(), undefended.mean_psnr() - 20.0);
}

TEST(Experiment, LinearModelExperiment) {
  auto victim = tiny_synth(10, 12, 4, 25).train;
  auto aux = tiny_synth(10, 12, 4, 26).train;

  AttackExperimentConfig cfg;
  cfg.attack = AttackKind::kLinear;
  cfg.batch_size = 4;
  cfg.num_batches = 2;
  cfg.classes = 10;
  cfg.seed = 9;

  const auto undefended = run_attack_experiment(victim, aux, cfg);
  EXPECT_GT(undefended.mean_psnr(), 100.0);
  cfg.transforms = {augment::TransformKind::kShear};
  const auto defended = run_attack_experiment(victim, aux, cfg);
  EXPECT_LT(defended.mean_psnr(), 45.0);
}

TEST(Experiment, CollectVisualsReturnsPairedImages) {
  auto victim = tiny_synth(10, 12, 3, 27).train;
  auto aux = tiny_synth(10, 12, 3, 28).train;
  AttackExperimentConfig cfg;
  cfg.attack = AttackKind::kRtf;
  cfg.batch_size = 3;
  cfg.neurons = 60;
  cfg.num_batches = 1;
  cfg.collect_visuals = true;
  const auto result = run_attack_experiment(victim, aux, cfg);
  ASSERT_EQ(result.visual_originals.size(), 3u);
  ASSERT_EQ(result.visual_reconstructions.size(), 3u);
  for (const auto& img : result.visual_reconstructions) {
    EXPECT_EQ(img.shape(), victim.image_shape());
  }
}

TEST(Trainer, LearnsSeparableSyntheticData) {
  auto ds = tiny_synth(4, 12, 10, 29);
  common::Rng rng(30);
  auto model = nn::make_mini_convnet({3, 12, 12}, 4, rng, 6);
  TrainerConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 8;
  cfg.adam.lr = 2e-3;
  const TrainResult result = train_classifier(*model, ds.train, ds.test, cfg);
  EXPECT_EQ(result.epoch_loss.size(), 8u);
  EXPECT_LT(result.epoch_loss.back(), result.epoch_loss.front());
  EXPECT_GT(result.final_test_accuracy, 0.5);  // well above 0.25 chance
}

TEST(Trainer, OasisAugmentationDoesNotBreakTraining) {
  auto ds = tiny_synth(4, 12, 8, 31);
  common::Rng rng(32);
  auto model = nn::make_mini_convnet({3, 12, 12}, 4, rng, 6);
  TrainerConfig cfg;
  cfg.epochs = 6;
  cfg.batch_size = 8;
  cfg.adam.lr = 2e-3;
  cfg.transforms = {augment::TransformKind::kMajorRotation};
  const TrainResult result = train_classifier(*model, ds.train, ds.test, cfg);
  EXPECT_GT(result.final_test_accuracy, 0.5);
}

}  // namespace
}  // namespace oasis::core

// Tests for the baseline defenses as defense-stack stages (DP as clip +
// noise, pruning as topk), their wiring through the attack harness, and
// implant detection.
#include <gtest/gtest.h>

#include <cmath>

#include "attack/cah.h"
#include "attack/detection.h"
#include "attack/rtf.h"
#include "common/error.h"
#include "core/experiment.h"
#include "data/synthetic.h"
#include "fl/defense.h"
#include "nn/models.h"
#include "obs/obs.h"

namespace oasis::core {
namespace {

std::vector<tensor::Tensor> toy_grads() {
  return {tensor::Tensor({2, 2}, {3.0, -4.0, 0.0, 0.0}),
          tensor::Tensor({2}, {0.0, 12.0})};
}

/// Runs a parsed stack over `grads` as client 0 of round 0.
std::vector<tensor::Tensor> defend(const std::string& spec,
                                   std::vector<tensor::Tensor> grads) {
  fl::parse_defense_stack(spec)->apply(grads, fl::DefenseContext{});
  return grads;
}

TEST(DpMechanism, ClipsGlobalNormWithoutNoise) {
  // Global norm = sqrt(9+16+144) = 13 → scale 0.5.
  const auto out = defend("clip:6.5", toy_grads());
  EXPECT_DOUBLE_EQ(out[0][0], 1.5);
  EXPECT_DOUBLE_EQ(out[0][1], -2.0);
  EXPECT_DOUBLE_EQ(out[1][1], 6.0);
}

TEST(DpMechanism, LeavesSmallUpdatesUnclipped) {
  const auto out = defend("clip:100", toy_grads());
  EXPECT_DOUBLE_EQ(out[0][0], 3.0);
  EXPECT_DOUBLE_EQ(out[1][1], 12.0);
}

TEST(DpMechanism, NoiseHasCalibratedScale) {
  // DP-SGD's σ·C parameterization: C = 2, σ = 0.5 is noise:1 after clip:2.
  // Zero gradients: the output is pure noise with stddev 1 and mean 0.
  const auto out = defend("clip:2,noise:1", {tensor::Tensor({10000})});
  real sum = 0.0, sq = 0.0;
  for (const auto v : out[0].data()) {
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(std::sqrt(sq / 10000.0), 1.0, 0.05);
  EXPECT_NEAR(sum / 10000.0, 0.0, 0.05);
}

TEST(DpMechanism, RejectsBadParameters) {
  EXPECT_THROW(fl::parse_defense_stack("clip:0,noise:1"), ConfigError);
  EXPECT_THROW(fl::parse_defense_stack("clip:1,noise:-0.1"), ConfigError);
  EXPECT_THROW(fl::GaussianNoiseDefense(0.0), ConfigError);
}

TEST(GaussianNoiseDefense, StddevIsCalibratedPerStage) {
  // Each stddev is met on its own, and on one stack seed, round and client
  // the stage scales the same standard-normal draws.
  const auto sample_stddev = [](const tensor::Tensor& t) {
    real sq = 0.0;
    for (const auto v : t.data()) sq += v * v;
    return std::sqrt(sq / static_cast<real>(t.size()));
  };
  const auto small = defend("noise:0.25", {tensor::Tensor({20000})});
  const auto large = defend("noise:3", {tensor::Tensor({20000})});
  EXPECT_NEAR(sample_stddev(small[0]), 0.25, 0.25 * 0.03);
  EXPECT_NEAR(sample_stddev(large[0]), 3.0, 3.0 * 0.03);
  for (index_t i = 0; i < 20000; ++i) {
    EXPECT_NEAR(large[0][i], small[0][i] * 12.0, 1e-12 * std::abs(large[0][i]))
        << i;
  }
}

TEST(TopKDefense, KeepsExactlyTheLargestEntries) {
  const auto out = defend("topk:0.5", {tensor::Tensor({4}, {0.1, -5.0, 2.0,
                                                             -0.2})});
  EXPECT_DOUBLE_EQ(out[0][0], 0.0);
  EXPECT_DOUBLE_EQ(out[0][1], -5.0);
  EXPECT_DOUBLE_EQ(out[0][2], 2.0);
  EXPECT_DOUBLE_EQ(out[0][3], 0.0);
}

TEST(TopKDefense, KeepAllIsIdentity) {
  const auto grads = toy_grads();
  const auto out = defend("topk:1", grads);
  EXPECT_TRUE(out[0] == grads[0]);
  EXPECT_TRUE(out[1] == grads[1]);
}

TEST(TopKDefense, SparsityMatchesFraction) {
  common::Rng rng(6);
  const auto out = defend("topk:0.1", {tensor::Tensor::randn({1000}, rng)});
  index_t nonzero = 0;
  for (const auto v : out[0].data()) {
    if (v != 0.0) ++nonzero;
  }
  EXPECT_NEAR(static_cast<real>(nonzero), 100.0, 5.0);
}

TEST(TopKDefense, SpecParserRejectsBadKeepFractions) {
  EXPECT_THROW(fl::parse_defense_stack("topk:0"), ConfigError);
  EXPECT_THROW(fl::parse_defense_stack("topk:1.5"), ConfigError);
  EXPECT_THROW(fl::parse_defense_stack("topk:x"), ConfigError);
  EXPECT_EQ(fl::parse_defense_stack("clip:1,topk:0.5")->name(),
            "clip(1)+topk(0.5)");
}

data::InMemoryDataset synth_images(index_t classes, index_t size,
                                   index_t per_class, std::uint64_t salt) {
  data::SynthConfig cfg;
  cfg.num_classes = classes;
  cfg.height = cfg.width = size;
  cfg.train_per_class = per_class;
  cfg.test_per_class = 0;
  cfg.seed ^= salt;
  return data::generate(cfg).train;
}

AttackExperimentConfig small_rtf() {
  AttackExperimentConfig exp;
  exp.attack = AttackKind::kRtf;
  exp.batch_size = 4;
  exp.neurons = 100;
  exp.num_batches = 2;
  exp.seed = 5;
  return exp;
}

TEST(Baselines, AttackExperimentDefendsTheCapturedUpload) {
  // The attacker reconstructs from what the malicious server captured, so a
  // stack on exp.defense must have run on every captured upload: once per
  // attacked batch, and hard enough pruning blinds RTF.
  const auto victim = synth_images(10, 12, 3, 0);
  const auto aux = synth_images(10, 12, 3, 77);
  AttackExperimentConfig exp = small_rtf();
  const auto undefended = run_attack_experiment(victim, aux, exp);
  exp.defense = fl::parse_defense_stack("topk:0.001");
  obs::Counter& applied = obs::counter("fl.defense.applied");
  const std::uint64_t before = applied.value();
  const auto pruned = run_attack_experiment(victim, aux, exp);
  EXPECT_EQ(applied.value() - before, exp.num_batches);
  EXPECT_GT(undefended.mean_psnr(), 80.0);
  EXPECT_LT(pruned.mean_psnr(), 30.0);
}

TEST(Baselines, DpNoiseBlindsRtfButOasisKeepsGradientsExact) {
  const auto victim = synth_images(10, 12, 3, 0);
  const auto aux = synth_images(10, 12, 3, 77);
  AttackExperimentConfig exp = small_rtf();
  const auto undefended = run_attack_experiment(victim, aux, exp);
  exp.defense = fl::parse_defense_stack("clip:1,noise:0.01");
  const auto dp = run_attack_experiment(victim, aux, exp);
  EXPECT_GT(undefended.mean_psnr(), 80.0);
  EXPECT_LT(dp.mean_psnr(), 30.0);
}

TEST(Detection, RtfImplantIsConspicuous) {
  data::SynthConfig cfg;
  cfg.num_classes = 6;
  cfg.height = cfg.width = 10;
  cfg.train_per_class = 4;
  cfg.test_per_class = 0;
  auto aux = data::generate(cfg).train;
  const nn::ImageSpec spec{3, 10, 10};
  common::Rng rng(11);

  auto honest = nn::make_attack_host(spec, 40, 6, rng);
  const auto honest_report = attack::inspect_first_dense(*honest);
  EXPECT_FALSE(honest_report.suspicious());
  EXPECT_LT(honest_report.row_duplication, 0.01);

  attack::RtfAttack rtf(spec, 40, aux);
  auto rtf_host = nn::make_attack_host(spec, 40, 6, rng);
  rtf.implant(*rtf_host);
  const auto rtf_report = attack::inspect_first_dense(*rtf_host);
  EXPECT_TRUE(rtf_report.suspicious());
  EXPECT_DOUBLE_EQ(rtf_report.row_duplication, 1.0);
  EXPECT_GT(rtf_report.bias_monotonicity, 0.95);
}

TEST(Detection, CahImplantEvadesTheScreens) {
  data::SynthConfig cfg;
  cfg.num_classes = 6;
  cfg.height = cfg.width = 10;
  cfg.train_per_class = 4;
  cfg.test_per_class = 0;
  auto aux = data::generate(cfg).train;
  const nn::ImageSpec spec{3, 10, 10};
  common::Rng rng(12);
  attack::CahAttack cah(spec, 40, 0.2, aux);
  auto host = nn::make_attack_host(spec, 40, 6, rng);
  cah.implant(*host);
  const auto report = attack::inspect_first_dense(*host);
  EXPECT_FALSE(report.suspicious());
  EXPECT_LT(report.row_duplication, 0.01);
  EXPECT_LT(report.bias_monotonicity, 0.8);
}

}  // namespace
}  // namespace oasis::core

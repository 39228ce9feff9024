// Secure aggregation and model-inconsistency tests.
#include <gtest/gtest.h>

#include <memory>

#include "attack/rtf.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "fl/defense.h"
#include "fl/inconsistent_server.h"
#include "fl/secure_agg.h"
#include "nn/dense.h"
#include "nn/model_io.h"
#include "nn/models.h"
#include "tensor/ops.h"

namespace oasis::fl {
namespace {

std::vector<tensor::Shape> toy_shapes() {
  return {{4, 3}, {7}};
}

TEST(SecureAgg, MasksCancelAcrossTheCohort) {
  const std::vector<std::uint64_t> cohort{3, 11, 7, 42};
  SecureAggregationSession session(cohort, /*round_nonce=*/5);
  std::vector<tensor::Tensor> sum{tensor::Tensor({4, 3}),
                                  tensor::Tensor({7})};
  for (const auto id : cohort) {
    const auto mask = session.mask_for(id, toy_shapes());
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += mask[i];
  }
  for (const auto& s : sum) {
    EXPECT_LT(s.norm(), 1e-9);
  }
}

TEST(SecureAgg, MasksAreDeterministicPerRoundAndDifferAcrossRounds) {
  const std::vector<std::uint64_t> cohort{1, 2, 3};
  SecureAggregationSession a(cohort, 9);
  SecureAggregationSession b(cohort, 9);
  SecureAggregationSession c(cohort, 10);
  const auto ma = a.mask_for(2, toy_shapes());
  const auto mb = b.mask_for(2, toy_shapes());
  const auto mc = c.mask_for(2, toy_shapes());
  EXPECT_TRUE(ma[0] == mb[0]);
  EXPECT_TRUE(ma[1] == mb[1]);
  EXPECT_FALSE(ma[0] == mc[0]);
}

TEST(SecureAgg, IndividualMaskedUpdateIsUnrecognizable) {
  const std::vector<std::uint64_t> cohort{0, 1};
  common::Rng rng(2);
  const tensor::Tensor original =
      tensor::Tensor::randn({32}, rng, 0.0, 1e-3);  // small "gradient"
  // The mask stage every client step runs on its gradient tensors.
  std::vector<tensor::Tensor> masked{original};
  SecAggMaskDefense().apply(masked, rng,
                            DefenseContext{/*round=*/1, /*client_id=*/0,
                                           cohort});
  // The N(0,1) mask dwarfs the 1e-3-scale signal.
  EXPECT_GT(tensor::max_abs_diff(masked[0], original), 0.1);
}

TEST(SecureAgg, ValidatesCohort) {
  EXPECT_THROW(SecureAggregationSession({1}, 0), Error);
  EXPECT_THROW(SecureAggregationSession({1, 1}, 0), Error);
  SecureAggregationSession ok({1, 2}, 0);
  EXPECT_THROW(ok.mask_for(9, toy_shapes()), Error);
}

class InconsistencyFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SynthConfig cfg;
    cfg.num_classes = 6;
    cfg.height = cfg.width = 10;
    cfg.train_per_class = 6;
    cfg.test_per_class = 0;
    pool_ = std::make_unique<data::InMemoryDataset>(
        data::generate(cfg).train);
    cfg.seed ^= 3;
    aux_ = std::make_unique<data::InMemoryDataset>(
        data::generate(cfg).train);
  }

  std::unique_ptr<data::InMemoryDataset> pool_;
  std::unique_ptr<data::InMemoryDataset> aux_;
};

TEST_F(InconsistencyFixture, TargetGetsLiveModelOthersGetDeadOne) {
  const nn::ImageSpec spec{3, 10, 10};
  const index_t n = 24;
  attack::RtfAttack atk(spec, n, *aux_);
  common::Rng rng(4);
  const ModelFactory factory = [&] {
    return nn::make_attack_host(spec, n, 6, rng);
  };
  InconsistentMaliciousServer server(factory(), 1e-3, atk.manipulator(),
                                     /*target=*/2);
  server.begin_round();

  auto live = factory();
  nn::deserialize_state(*live, server.dispatch_to(2).model_state);
  auto dead = factory();
  nn::deserialize_state(*dead, server.dispatch_to(0).model_state);

  auto* live_dense = dynamic_cast<nn::Dense*>(&live->at(1));
  auto* dead_dense = dynamic_cast<nn::Dense*>(&dead->at(1));
  ASSERT_NE(live_dense, nullptr);
  ASSERT_NE(dead_dense, nullptr);
  // Live: RTF bias ladder (finite, data-scale). Dead: all −1e9.
  EXPECT_GT(live_dense->bias().value.min(), -10.0);
  EXPECT_DOUBLE_EQ(dead_dense->bias().value.max(), -1e9);
  // Weights identical otherwise.
  EXPECT_TRUE(tensor::allclose(dead_dense->weight().value,
                               live_dense->weight().value));
}

TEST_F(InconsistencyFixture, NonTargetMaliciousGradientsAreExactlyZero) {
  const nn::ImageSpec spec{3, 10, 10};
  const index_t n = 24;
  attack::RtfAttack atk(spec, n, *aux_);
  common::Rng rng(5);
  const ModelFactory factory = [&] {
    return nn::make_attack_host(spec, n, 6, rng);
  };
  InconsistentMaliciousServer server(factory(), 1e-3, atk.manipulator(),
                                     /*target=*/0);
  server.begin_round();

  Client bystander(1, *pool_, factory, 4,
                   std::make_shared<IdentityPreprocessor>(), common::Rng(6));
  const auto update = bystander.handle_round(server.dispatch_to(1));
  const auto grads = tensor::deserialize_tensors(update.gradients);
  // Parameter order: Flatten (none), Dense1 W+b, ... → indices 0, 1.
  EXPECT_DOUBLE_EQ(grads[0].norm(), 0.0);
  EXPECT_DOUBLE_EQ(grads[1].norm(), 0.0);

  // And the aggregate over {victim, bystander} carries exactly the victim's
  // malicious-layer gradients.
  Client victim(0, *pool_, factory, 4,
                std::make_shared<IdentityPreprocessor>(), common::Rng(7));
  const auto victim_update = victim.handle_round(server.dispatch_to(0));
  const auto victim_grads =
      tensor::deserialize_tensors(victim_update.gradients);
  tensor::Tensor aggregate = victim_grads[0] + grads[0];
  EXPECT_TRUE(tensor::allclose(aggregate, victim_grads[0]));
}

TEST_F(InconsistencyFixture, RejectsNonNegativeDeadBias) {
  const nn::ImageSpec spec{3, 10, 10};
  attack::RtfAttack atk(spec, 24, *aux_);
  common::Rng rng(8);
  EXPECT_THROW(InconsistentMaliciousServer(
                   nn::make_attack_host(spec, 24, 6, rng), 1e-3,
                   atk.manipulator(), 0, /*dead_bias=*/1.0),
               Error);
}

}  // namespace
}  // namespace oasis::fl

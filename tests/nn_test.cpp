// NN library tests: analytic gradients vs finite differences for every
// layer, loss correctness, optimizer behaviour, container surgery, state
// snapshot round-trips.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/loss.h"
#include "nn/scheduler.h"
#include "nn/model_io.h"
#include "nn/models.h"
#include "nn/optimizer.h"
#include "nn/pooling.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace oasis::nn {
namespace {

constexpr real kGradTol = 2e-4;

TEST(Dense, ForwardKnownValues) {
  common::Rng rng(1);
  Dense layer(2, 2, rng);
  layer.weight().value = tensor::Tensor({2, 2}, {1.0, 2.0, 3.0, 4.0});
  layer.bias().value = tensor::Tensor({2}, {0.5, -0.5});
  tensor::Tensor x({1, 2}, {1.0, 1.0});
  tensor::Tensor y = layer.forward(x, true);
  // y = x·Wᵀ + b; row0 of W = [1,2] -> 3 + 0.5
  EXPECT_DOUBLE_EQ(y.at2(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(y.at2(0, 1), 6.5);
}

TEST(Dense, RejectsBadInput) {
  common::Rng rng(1);
  Dense layer(4, 3, rng);
  EXPECT_THROW(layer.forward(tensor::Tensor({2, 5}), true), Error);
}

TEST(Dense, GradientsMatchFiniteDifferences) {
  common::Rng rng(2);
  Dense layer(6, 4, rng);
  tensor::Tensor x = tensor::Tensor::randn({3, 6}, rng);
  EXPECT_LT(testutil::check_gradients(layer, x, rng), kGradTol);
}

TEST(Dense, GradientsAccumulateAcrossBackwardCalls) {
  common::Rng rng(3);
  Dense layer(3, 2, rng);
  tensor::Tensor x = tensor::Tensor::randn({2, 3}, rng);
  tensor::Tensor g = tensor::Tensor::ones({2, 2});
  layer.forward(x, true);
  layer.backward(g);
  const tensor::Tensor once = layer.weight().grad;
  layer.forward(x, true);
  layer.backward(g);
  EXPECT_TRUE(tensor::allclose(layer.weight().grad, once + once));
  layer.zero_grad();
  EXPECT_DOUBLE_EQ(layer.weight().grad.max(), 0.0);
}

TEST(Dense, BatchSummedBiasGradient) {
  // The bias gradient must equal the sum of per-row output grads — the exact
  // quantity the attacks divide by.
  common::Rng rng(4);
  Dense layer(3, 2, rng);
  tensor::Tensor x = tensor::Tensor::randn({5, 3}, rng);
  tensor::Tensor g = tensor::Tensor::randn({5, 2}, rng);
  layer.forward(x, true);
  layer.backward(g);
  EXPECT_TRUE(tensor::allclose(layer.bias().grad, tensor::sum_rows(g)));
}

TEST(Activations, ReluGradient) {
  common::Rng rng(5);
  ReLU layer;
  // Offset inputs away from the kink to keep finite differences valid.
  tensor::Tensor x = tensor::Tensor::randn({4, 7}, rng);
  for (auto& v : x.data()) {
    if (std::abs(v) < 0.05) v += 0.2;
  }
  EXPECT_LT(testutil::check_gradients(layer, x, rng), kGradTol);
}

TEST(Activations, TanhGradient) {
  common::Rng rng(6);
  Tanh layer;
  tensor::Tensor x = tensor::Tensor::randn({3, 5}, rng);
  EXPECT_LT(testutil::check_gradients(layer, x, rng), kGradTol);
}

TEST(Activations, SigmoidGradient) {
  common::Rng rng(7);
  Sigmoid layer;
  tensor::Tensor x = tensor::Tensor::randn({3, 5}, rng);
  EXPECT_LT(testutil::check_gradients(layer, x, rng), kGradTol);
}

TEST(Conv2d, MatchesDirectConvolution) {
  common::Rng rng(8);
  Conv2d conv(1, 1, 3, 1, 0, rng);
  conv.weight().value =
      tensor::Tensor({1, 9}, {0, 0, 0, 0, 1, 0, 0, 0, 0});  // identity tap
  conv.bias().value = tensor::Tensor({1}, {0.25});
  tensor::Tensor x = tensor::Tensor::randn({1, 1, 5, 5}, rng);
  tensor::Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 1, 3, 3}));
  // Identity kernel picks the center pixel.
  EXPECT_NEAR(y.at4(0, 0, 1, 1), x.at4(0, 0, 2, 2) + 0.25, 1e-12);
}

TEST(Conv2d, GradientsMatchFiniteDifferences) {
  common::Rng rng(9);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  tensor::Tensor x = tensor::Tensor::randn({2, 2, 5, 5}, rng);
  EXPECT_LT(testutil::check_gradients(conv, x, rng), kGradTol);
}

TEST(Conv2d, StridedGradients) {
  common::Rng rng(10);
  Conv2d conv(1, 2, 3, 2, 1, rng);
  tensor::Tensor x = tensor::Tensor::randn({2, 1, 6, 6}, rng);
  EXPECT_LT(testutil::check_gradients(conv, x, rng), kGradTol);
}

TEST(Pooling, MaxPoolForwardAndGradient) {
  common::Rng rng(11);
  MaxPool2d pool(2, 2);
  tensor::Tensor x({1, 1, 2, 2}, {1.0, 4.0, 2.0, 3.0});
  tensor::Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.size(), 1u);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  tensor::Tensor g({1, 1, 1, 1}, {2.5});
  tensor::Tensor gx = pool.backward(g);
  EXPECT_DOUBLE_EQ(gx[1], 2.5);  // flows to the argmax only
  EXPECT_DOUBLE_EQ(gx[0], 0.0);

  // Finite differences on random data (distinct values avoid ties).
  tensor::Tensor xr = tensor::Tensor::randn({2, 2, 4, 4}, rng);
  EXPECT_LT(testutil::check_gradients(pool, xr, rng), kGradTol);
}

TEST(Pooling, AvgPoolGradient) {
  common::Rng rng(12);
  AvgPool2d pool(2, 2);
  tensor::Tensor x = tensor::Tensor::randn({2, 3, 4, 4}, rng);
  EXPECT_LT(testutil::check_gradients(pool, x, rng), kGradTol);
}

TEST(Pooling, GlobalAvgPoolGradient) {
  common::Rng rng(13);
  GlobalAvgPool pool;
  tensor::Tensor x = tensor::Tensor::randn({2, 3, 4, 4}, rng);
  EXPECT_LT(testutil::check_gradients(pool, x, rng), kGradTol);
}

TEST(Pooling, OverlappingMaxPoolGradient) {
  // kernel > stride: windows overlap, so one input pixel can be the argmax
  // of several windows and must accumulate gradient from each.
  common::Rng rng(31);
  MaxPool2d pool(3, 2);
  tensor::Tensor x = tensor::Tensor::randn({2, 2, 7, 7}, rng);
  EXPECT_LT(testutil::check_gradients(pool, x, rng), kGradTol);
}

TEST(Pooling, OverlappingAvgPoolGradient) {
  common::Rng rng(32);
  AvgPool2d pool(3, 2);
  tensor::Tensor x = tensor::Tensor::randn({2, 2, 7, 7}, rng);
  EXPECT_LT(testutil::check_gradients(pool, x, rng), kGradTol);
}

TEST(Pooling, FlattenRoundTrip) {
  common::Rng rng(14);
  Flatten flatten;
  tensor::Tensor x = tensor::Tensor::randn({2, 3, 4, 5}, rng);
  tensor::Tensor y = flatten.forward(x, true);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 60}));
  tensor::Tensor gx = flatten.backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
  EXPECT_TRUE(tensor::allclose(gx, x));
}

TEST(BatchNorm, NormalizesTrainingBatch) {
  common::Rng rng(15);
  BatchNorm2d bn(3);
  tensor::Tensor x = tensor::Tensor::randn({4, 3, 5, 5}, rng, 2.0, 3.0);
  tensor::Tensor y = bn.forward(x, true);
  // Per-channel mean ~0, var ~1.
  const index_t hw = 25;
  for (index_t c = 0; c < 3; ++c) {
    real m = 0.0, v = 0.0;
    for (index_t n = 0; n < 4; ++n)
      for (index_t p = 0; p < hw; ++p) m += y.data()[(n * 3 + c) * hw + p];
    m /= 100.0;
    for (index_t n = 0; n < 4; ++n)
      for (index_t p = 0; p < hw; ++p) {
        const real d = y.data()[(n * 3 + c) * hw + p] - m;
        v += d * d;
      }
    v /= 100.0;
    EXPECT_NEAR(m, 0.0, 1e-9);
    EXPECT_NEAR(v, 1.0, 1e-3);
  }
}

TEST(BatchNorm, GradientsMatchFiniteDifferences) {
  common::Rng rng(16);
  BatchNorm2d bn(2);
  tensor::Tensor x = tensor::Tensor::randn({3, 2, 3, 3}, rng);
  EXPECT_LT(testutil::check_gradients(bn, x, rng), kGradTol);
}

TEST(BatchNorm, EvalModeGradientsMatchFiniteDifferences) {
  // Eval mode normalizes with the (frozen) running statistics, which makes
  // the layer affine in x — the backward pass must use those same stats,
  // not the batch stats. A few training passes first so the running stats
  // are non-trivial.
  common::Rng rng(33);
  BatchNorm2d bn(2);
  for (int i = 0; i < 5; ++i) {
    bn.forward(tensor::Tensor::randn({4, 2, 3, 3}, rng, 1.5, 2.0), true);
  }
  tensor::Tensor x = tensor::Tensor::randn({3, 2, 3, 3}, rng);
  EXPECT_LT(testutil::check_gradients(bn, x, rng, /*training=*/false),
            kGradTol);
}

TEST(BatchNorm, EvalUsesRunningStats) {
  common::Rng rng(17);
  BatchNorm2d bn(1);
  tensor::Tensor x = tensor::Tensor::randn({8, 1, 4, 4}, rng, 5.0, 2.0);
  for (int i = 0; i < 50; ++i) bn.forward(x, true);
  tensor::Tensor y = bn.forward(x, false);
  // After many EMA updates on the same batch, eval output ≈ train output.
  tensor::Tensor yt = bn.forward(x, true);
  EXPECT_LT(tensor::max_abs_diff(y, yt), 0.05);
}

TEST(Residual, GradientsMatchFiniteDifferences) {
  common::Rng rng(18);
  ResidualBlock block(2, 4, 2, rng);  // projection path
  tensor::Tensor x = tensor::Tensor::randn({2, 2, 6, 6}, rng);
  EXPECT_LT(testutil::check_gradients(block, x, rng), 5e-4);
}

TEST(Residual, IdentityShortcutGradients) {
  common::Rng rng(19);
  ResidualBlock block(3, 3, 1, rng);
  tensor::Tensor x = tensor::Tensor::randn({2, 3, 4, 4}, rng);
  EXPECT_LT(testutil::check_gradients(block, x, rng), 5e-4);
}

TEST(Residual, EvalModeGradients) {
  // The block's inner BatchNorms switch to running stats in eval mode; the
  // composed backward must stay consistent with that forward.
  common::Rng rng(34);
  ResidualBlock block(2, 2, 1, rng);
  for (int i = 0; i < 5; ++i) {
    block.forward(tensor::Tensor::randn({4, 2, 4, 4}, rng), true);
  }
  tensor::Tensor x = tensor::Tensor::randn({2, 2, 4, 4}, rng);
  EXPECT_LT(testutil::check_gradients(block, x, rng, /*training=*/false),
            5e-4);
}

TEST(Sequential, ForwardBackwardComposition) {
  common::Rng rng(20);
  Sequential net;
  net.emplace<Dense>(5, 8, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(8, 3, rng);
  tensor::Tensor x = tensor::Tensor::randn({4, 5}, rng);
  EXPECT_LT(testutil::check_gradients(net, x, rng), kGradTol);
  EXPECT_EQ(net.parameters().size(), 4u);
}

TEST(Sequential, InsertPlacesModuleInOrder) {
  common::Rng rng(21);
  Sequential net;
  net.emplace<Dense>(4, 4, rng);
  net.emplace<Dense>(4, 2, rng);
  net.insert(1, std::make_unique<ReLU>());
  EXPECT_EQ(net.size(), 3u);
  EXPECT_EQ(net.at(1).name(), "ReLU");
  EXPECT_THROW(net.insert(9, std::make_unique<ReLU>()), Error);
}

TEST(Loss, SoftmaxCrossEntropyKnownValue) {
  // Uniform logits over k classes: loss = log(k), grad = (1/k - onehot)/B.
  tensor::Tensor logits({2, 4});
  SoftmaxCrossEntropy loss_fn;
  const std::vector<index_t> labels{1, 3};
  const LossResult r = loss_fn.compute(logits, labels);
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-12);
  EXPECT_NEAR(r.grad_logits.at2(0, 1), (0.25 - 1.0) / 2.0, 1e-12);
  EXPECT_NEAR(r.grad_logits.at2(0, 0), 0.25 / 2.0, 1e-12);
}

TEST(Loss, SoftmaxCrossEntropyGradientNumeric) {
  common::Rng rng(22);
  tensor::Tensor logits = tensor::Tensor::randn({3, 5}, rng);
  const std::vector<index_t> labels{0, 2, 4};
  SoftmaxCrossEntropy loss_fn;
  const LossResult r = loss_fn.compute(logits, labels);
  real max_err = 0.0;
  for (index_t i = 0; i < logits.size(); ++i) {
    const real numeric = testutil::numeric_derivative(
        [&] { return loss_fn.compute(logits, labels).loss; },
        logits.data()[i]);
    max_err = std::max(max_err, std::abs(numeric - r.grad_logits[i]));
  }
  EXPECT_LT(max_err, 1e-6);
}

TEST(Loss, SigmoidBceGradientNumeric) {
  common::Rng rng(23);
  tensor::Tensor logits = tensor::Tensor::randn({2, 4}, rng, 0.0, 2.0);
  const std::vector<index_t> labels{3, 0};
  SigmoidBce loss_fn;
  const LossResult r = loss_fn.compute(logits, labels);
  real max_err = 0.0;
  for (index_t i = 0; i < logits.size(); ++i) {
    const real numeric = testutil::numeric_derivative(
        [&] { return loss_fn.compute(logits, labels).loss; },
        logits.data()[i]);
    max_err = std::max(max_err, std::abs(numeric - r.grad_logits[i]));
  }
  EXPECT_LT(max_err, 1e-6);
}

TEST(Loss, SumVsMeanReductionScale) {
  common::Rng rng(24);
  tensor::Tensor logits = tensor::Tensor::randn({4, 3}, rng);
  const std::vector<index_t> labels{0, 1, 2, 0};
  const LossResult mean =
      SoftmaxCrossEntropy(Reduction::kMean).compute(logits, labels);
  const LossResult sum =
      SoftmaxCrossEntropy(Reduction::kSum).compute(logits, labels);
  EXPECT_NEAR(sum.loss, mean.loss * 4.0, 1e-9);
  EXPECT_TRUE(tensor::allclose(sum.grad_logits, mean.grad_logits * 4.0));
}

TEST(Loss, MseKnownValue) {
  tensor::Tensor pred({2}, {1.0, 3.0});
  tensor::Tensor target({2}, {0.0, 1.0});
  const LossResult r = MseLoss().compute(pred, target);
  EXPECT_NEAR(r.loss, (1.0 + 4.0) / 2.0, 1e-12);
  EXPECT_NEAR(r.grad_logits[1], 2.0 * 2.0 / 2.0, 1e-12);
}

TEST(Optimizer, SgdStepMatchesFormula) {
  common::Rng rng(25);
  Dense layer(2, 2, rng);
  const tensor::Tensor w0 = layer.weight().value;
  layer.weight().grad.fill(1.0);
  layer.bias().grad.fill(2.0);
  Sgd opt(layer.parameters(), {.lr = 0.1, .momentum = 0.0,
                               .weight_decay = 0.0});
  opt.step();
  for (index_t i = 0; i < w0.size(); ++i) {
    EXPECT_NEAR(layer.weight().value[i], w0[i] - 0.1, 1e-12);
  }
  EXPECT_NEAR(layer.bias().value[0], -0.2, 1e-12);
}

TEST(Optimizer, SgdMomentumAccumulates) {
  common::Rng rng(26);
  Dense layer(1, 1, rng);
  layer.weight().value.fill(0.0);
  Sgd opt(layer.parameters(), {.lr = 1.0, .momentum = 0.5,
                               .weight_decay = 0.0});
  layer.weight().grad.fill(1.0);
  opt.step();  // v=1, w=-1
  opt.step();  // v=1.5, w=-2.5
  EXPECT_NEAR(layer.weight().value[0], -2.5, 1e-12);
}

TEST(Optimizer, AdamFirstStepIsLrSignedGradient) {
  common::Rng rng(27);
  Dense layer(2, 1, rng);
  const tensor::Tensor w0 = layer.weight().value;
  layer.weight().grad = tensor::Tensor({1, 2}, {0.3, -0.7});
  Adam opt(layer.parameters(), {.lr = 0.01});
  opt.step();
  // Bias-corrected first Adam step ≈ lr * sign(g).
  EXPECT_NEAR(layer.weight().value[0], w0[0] - 0.01, 1e-5);
  EXPECT_NEAR(layer.weight().value[1], w0[1] + 0.01, 1e-5);
}

TEST(Optimizer, AdamReducesLossOnQuadratic) {
  // Minimize ||Wx - t||² for fixed x, t — loss must fall monotonically-ish.
  common::Rng rng(28);
  Dense layer(4, 4, rng);
  Dense teacher(4, 4, rng);  // target is realizable: t = teacher(x)
  tensor::Tensor x = tensor::Tensor::randn({8, 4}, rng);
  tensor::Tensor t = teacher.forward(x, false);
  MseLoss loss_fn;
  Adam opt(layer.parameters(), {.lr = 0.05});
  real first = 0.0, last = 0.0;
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    const tensor::Tensor y = layer.forward(x, true);
    const LossResult r = loss_fn.compute(y, t);
    layer.backward(r.grad_logits);
    opt.step();
    if (i == 0) first = r.loss;
    last = r.loss;
  }
  EXPECT_LT(last, first * 0.05);
}

TEST(ModelIo, SnapshotRoundTrip) {
  common::Rng rng(29);
  const ImageSpec spec{3, 8, 8};
  auto a = make_mini_resnet(spec, 5, rng, 4);
  auto b = make_mini_resnet(spec, 5, rng, 4);  // different init
  const auto state = snapshot_state(*a);
  load_state(*b, state);
  tensor::Tensor x = tensor::Tensor::randn({2, 3, 8, 8}, rng);
  // Identical state ⇒ identical eval outputs.
  EXPECT_TRUE(tensor::allclose(b->forward(x, false), a->forward(x, false)));
}

TEST(ModelIo, SerializedStateRoundTrip) {
  common::Rng rng(30);
  const ImageSpec spec{3, 8, 8};
  auto a = make_mini_convnet(spec, 4, rng, 4);
  auto b = make_mini_convnet(spec, 4, rng, 4);
  deserialize_state(*b, serialize_state(*a));
  tensor::Tensor x = tensor::Tensor::randn({1, 3, 8, 8}, rng);
  EXPECT_TRUE(tensor::allclose(b->forward(x, false), a->forward(x, false)));
}

TEST(ModelIo, LoadStateRejectsMismatch) {
  common::Rng rng(31);
  const ImageSpec spec{3, 8, 8};
  auto a = make_mlp(spec, {16}, 4, rng);
  auto state = snapshot_state(*a);
  state.pop_back();
  EXPECT_THROW(load_state(*a, state), Error);
}

// Only the LAST tensor mismatches: every earlier one would load fine, so a
// loader that assigned while it validated would overwrite most of the live
// model before throwing. Both load paths must leave the bytes untouched.
TEST(ModelIo, LoadStateMismatchLeavesModelUntouched) {
  common::Rng rng(33);
  const ImageSpec spec{3, 8, 8};
  auto live = make_mlp(spec, {16}, 4, rng);
  auto other = make_mlp(spec, {16}, 4, rng);  // same shapes, other values
  auto state = snapshot_state(*other);
  tensor::Shape wrong = state.back().shape();
  wrong.back() += 1;
  state.back() = tensor::Tensor(wrong);
  const tensor::ByteBuffer before = serialize_state(*live);
  EXPECT_THROW(load_state(*live, state), Error);
  EXPECT_EQ(serialize_state(*live), before);
  EXPECT_THROW(deserialize_state(*live, tensor::serialize_tensors(state)),
               Error);
  EXPECT_EQ(serialize_state(*live), before);
}

TEST(Models, AttackHostShapes) {
  common::Rng rng(32);
  const ImageSpec spec{3, 16, 16};
  auto host = make_attack_host(spec, 50, 10, rng);
  tensor::Tensor x = tensor::Tensor::randn({4, 3, 16, 16}, rng);
  tensor::Tensor y = host->forward(x, true);
  EXPECT_EQ(y.shape(), (tensor::Shape{4, 10}));
  // The malicious slot is the first Dense with d inputs and n outputs.
  auto* dense = dynamic_cast<Dense*>(&host->at(kMaliciousDenseIndex));
  ASSERT_NE(dense, nullptr);
  EXPECT_EQ(dense->in_features(), spec.pixels());
  EXPECT_EQ(dense->out_features(), 50u);
}

TEST(Models, MiniResnetTrainEvalModes) {
  common::Rng rng(33);
  const ImageSpec spec{3, 16, 16};
  auto net = make_mini_resnet(spec, 7, rng, 4);
  tensor::Tensor x = tensor::Tensor::randn({2, 3, 16, 16}, rng);
  tensor::Tensor y = net->forward(x, true);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 7}));
  // Eval mode runs (running stats) without throwing and gives finite values.
  tensor::Tensor ye = net->forward(x, false);
  for (const auto v : ye.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Dropout, EvalModeIsIdentity) {
  Dropout layer(0.5, common::Rng(1));
  common::Rng rng(2);
  tensor::Tensor x = tensor::Tensor::randn({4, 8}, rng);
  EXPECT_TRUE(layer.forward(x, false) == x);
  EXPECT_TRUE(layer.backward(x) == x);
}

TEST(Dropout, TrainModeMasksAndScales) {
  const real p = 0.3;
  Dropout layer(p, common::Rng(3));
  common::Rng rng(4);
  tensor::Tensor x = tensor::Tensor::full({1, 10000}, 1.0);
  tensor::Tensor y = layer.forward(x, true);
  index_t zeros = 0;
  const real keep_scale = 1.0 / (1.0 - p);
  for (const auto v : y.data()) {
    if (v == 0.0) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, keep_scale, 1e-12);  // survivors scaled exactly
    }
  }
  EXPECT_NEAR(static_cast<real>(zeros) / 10000.0, p, 0.02);
  // Expected value preserved.
  EXPECT_NEAR(y.mean(), 1.0, 0.03);
  // Backward uses the same mask.
  tensor::Tensor g = tensor::Tensor::full({1, 10000}, 1.0);
  tensor::Tensor gx = layer.backward(g);
  for (index_t i = 0; i < gx.size(); ++i) {
    EXPECT_EQ(gx[i] == 0.0, y[i] == 0.0);
  }
}

TEST(Dropout, RejectsInvalidProbability) {
  EXPECT_THROW(Dropout(1.0, common::Rng(5)), Error);
  EXPECT_THROW(Dropout(-0.1, common::Rng(5)), Error);
}

TEST(Scheduler, StepDecay) {
  StepDecayLr sched(1.0, 10, 0.5);
  EXPECT_DOUBLE_EQ(sched.lr(0), 1.0);
  EXPECT_DOUBLE_EQ(sched.lr(9), 1.0);
  EXPECT_DOUBLE_EQ(sched.lr(10), 0.5);
  EXPECT_DOUBLE_EQ(sched.lr(25), 0.25);
}

TEST(Scheduler, CosineAnnealing) {
  CosineAnnealingLr sched(1.0, 100, 0.1);
  EXPECT_DOUBLE_EQ(sched.lr(0), 1.0);
  EXPECT_NEAR(sched.lr(50), 0.55, 1e-12);  // midpoint = (1+0.1)/2
  EXPECT_NEAR(sched.lr(100), 0.1, 1e-12);
  EXPECT_NEAR(sched.lr(500), 0.1, 1e-12);  // clamps past the horizon
}

TEST(Scheduler, OptimizerLrIsAdjustable) {
  common::Rng rng(6);
  Dense layer(2, 2, rng);
  Adam opt(layer.parameters(), {.lr = 1e-3});
  EXPECT_DOUBLE_EQ(opt.lr(), 1e-3);
  opt.set_lr(5e-4);
  EXPECT_DOUBLE_EQ(opt.lr(), 5e-4);
}

class MlpGradientSweep : public ::testing::TestWithParam<index_t> {};

TEST_P(MlpGradientSweep, EndToEndGradients) {
  common::Rng rng(40 + GetParam());
  const ImageSpec spec{1, 4, 4};
  auto net = make_mlp(spec, {GetParam()}, 3, rng);
  tensor::Tensor x = tensor::Tensor::randn({3, 1, 4, 4}, rng);
  EXPECT_LT(testutil::check_gradients(*net, x, rng), kGradTol);
}

INSTANTIATE_TEST_SUITE_P(HiddenWidths, MlpGradientSweep,
                         ::testing::Values(1, 4, 16, 33));

}  // namespace
}  // namespace oasis::nn

// NN library tests: analytic gradients vs finite differences for every
// layer, loss correctness, optimizer behaviour, container surgery, state
// snapshot round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/model_io.h"
#include "nn/models.h"
#include "nn/optimizer.h"
#include "nn/pooling.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "tensor/gemm/gemm.h"
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

// ---- ReLU keep-mask and the rvalue forward/backward contract ---------------

std::vector<std::uint64_t> bits_of(const tensor::Tensor& t) {
  std::vector<std::uint64_t> bits;
  for (const real v : t.data()) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

tensor::Tensor tensor_of_bits(tensor::Shape shape,
                              const std::vector<std::uint64_t>& bits) {
  std::vector<real> values;
  for (const std::uint64_t b : bits) values.push_back(std::bit_cast<real>(b));
  return tensor::Tensor(std::move(shape), std::move(values));
}

// −0.0, +0.0, quiet NaN, +inf, −inf, ±the smallest subnormal, −1.5, 2.5.
const std::vector<std::uint64_t> kReluInputBits = {
    0x8000000000000000u, 0x0000000000000000u, 0x7FF8000000000000u,
    0x7FF0000000000000u, 0xFFF0000000000000u, 0x0000000000000001u,
    0x8000000000000001u, 0xBFF8000000000000u, 0x4004000000000000u};
// max(x, 0): −0.0 and NaN pass through unchanged, as std::max leaves them.
const std::vector<std::uint64_t> kReluForwardBits = {
    0x8000000000000000u, 0x0000000000000000u, 0x7FF8000000000000u,
    0x7FF0000000000000u, 0x0000000000000000u, 0x0000000000000001u,
    0x0000000000000000u, 0x0000000000000000u, 0x4004000000000000u};
// Upstream gradient 1..9, zeroed wherever x <= 0 (±0.0 included; NaN kept).
const std::vector<std::uint64_t> kReluBackwardBits = {
    0x0000000000000000u, 0x0000000000000000u, 0x4008000000000000u,
    0x4010000000000000u, 0x0000000000000000u, 0x4018000000000000u,
    0x0000000000000000u, 0x0000000000000000u, 0x4022000000000000u};

TEST(ReluContract, SpecialValuesThroughConstRefAndRvalueForms) {
  const tensor::Tensor x = tensor_of_bits({9}, kReluInputBits);
  const tensor::Tensor g({9}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const std::vector<std::uint64_t> g_bits = bits_of(g);
  {
    ReLU layer;
    EXPECT_EQ(bits_of(layer.forward(x, true)), kReluForwardBits);
    EXPECT_EQ(bits_of(x), kReluInputBits);
    EXPECT_EQ(bits_of(layer.backward(g)), kReluBackwardBits);
    EXPECT_EQ(bits_of(g), g_bits);
  }
  {
    ReLU layer;
    EXPECT_EQ(bits_of(layer.forward(tensor::Tensor(x), true)),
              kReluForwardBits);
    EXPECT_EQ(bits_of(layer.backward(tensor::Tensor(g))), kReluBackwardBits);
  }
}

TEST(ReluContract, WrongShapeBackwardThrows) {
  common::Rng rng(70);
  ReLU layer;
  layer.forward(tensor::Tensor::randn({2, 3}, rng), true);
  EXPECT_THROW(layer.backward(tensor::Tensor({3, 2})), ShapeError);
  EXPECT_THROW(layer.backward(tensor::Tensor({2, 4})), ShapeError);
  const tensor::Tensor wrong({6});
  EXPECT_THROW(layer.backward(wrong), ShapeError);
  EXPECT_NO_THROW(layer.backward(tensor::Tensor({2, 3})));
}

TEST(ReluContract, ForwardAtANewBatchSizeResizesTheMask) {
  ReLU layer;
  layer.forward(tensor::Tensor({2, 2}, {1, 1, 1, 1}), true);
  const tensor::Tensor y =
      layer.forward(tensor::Tensor({3, 2}, {-1, 2, 3, -4, 0, 6}), true);
  EXPECT_EQ(y, tensor::Tensor({3, 2}, {0, 2, 3, 0, 0, 6}));
  EXPECT_EQ(layer.backward(tensor::Tensor({3, 2}, {1, 1, 1, 1, 1, 1})),
            tensor::Tensor({3, 2}, {0, 1, 1, 0, 0, 1}));
  EXPECT_THROW(layer.backward(tensor::Tensor({2, 2})), ShapeError);
}

TEST(ReluContract, SequentialNeverMutatesTheCallersTensors) {
  // ReLU first, so an in-place first child would write into the caller's x.
  common::Rng rng(71);
  Sequential net;
  net.emplace<ReLU>();
  net.emplace<Flatten>();
  net.emplace<Dense>(12, 5, rng);
  net.emplace<ReLU>();
  const tensor::Tensor x = tensor::Tensor::randn({2, 3, 2, 2}, rng);
  const tensor::Tensor g = tensor::Tensor::randn({2, 5}, rng);
  const std::vector<std::uint64_t> x_bits = bits_of(x), g_bits = bits_of(g);
  const tensor::Tensor y = net.forward(x, true);
  const tensor::Tensor gx = net.backward(g);
  EXPECT_EQ(bits_of(x), x_bits);
  EXPECT_EQ(bits_of(g), g_bits);
  // The rvalue forms compute the same bytes.
  net.zero_grad();
  EXPECT_EQ(bits_of(net.forward(tensor::Tensor(x), true)), bits_of(y));
  EXPECT_EQ(bits_of(net.backward(tensor::Tensor(g))), bits_of(gx));
}

TEST(ReluContract, ResidualStackGradientsThroughRvaluePaths) {
  // Sequential hands every child after the first an rvalue, so the ReLU,
  // ResidualBlock and Flatten children here run their rvalue forms.
  common::Rng rng(72);
  Sequential net;
  net.emplace<Conv2d>(2, 3, 3, 1, 1, rng);
  net.emplace<ReLU>();
  net.emplace<ResidualBlock>(3, 3, 1, rng);
  net.emplace<ResidualBlock>(3, 4, 2, rng);
  net.emplace<Flatten>();
  net.emplace<Dense>(16, 3, rng);
  tensor::Tensor x = tensor::Tensor::randn({2, 2, 4, 4}, rng);
  EXPECT_LT(testutil::check_gradients(net, x, rng), 5e-4);
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

TEST(Pooling, WindowWithNothingAboveMinusInfRoutesToItsFirstElement) {
  // Sample 1's window is all NaN, then all −inf: no element beats the
  // scan's −inf start, so its gradient must reach the window's own first
  // element, not flat element 0 of the batch (sample 0's window).
  const real nan = std::numeric_limits<real>::quiet_NaN();
  const real inf = std::numeric_limits<real>::infinity();
  for (const real fill : {nan, -inf}) {
    MaxPool2d pool(2, 2);
    const tensor::Tensor x({2, 1, 2, 2},
                           {1.0, 2.0, 3.0, 4.0, fill, fill, fill, fill});
    const tensor::Tensor y = pool.forward(x, true);
    EXPECT_EQ(y[0], 4.0);
    EXPECT_EQ(y[1], -inf);
    const tensor::Tensor gx =
        pool.backward(tensor::Tensor({2, 1, 1, 1}, {5.0, 7.0}));
    const tensor::Tensor want({2, 1, 2, 2}, {0, 0, 0, 5.0, 7.0, 0, 0, 0});
    EXPECT_EQ(bits_of(gx), bits_of(want));
  }
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
  Adam opt(layer.parameters(), {.lr = 0.05});
  real first = 0.0, last = 0.0;
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    // Mean squared error: loss = Σ(y-t)²/N, d loss/dy = 2(y-t)/N.
    tensor::Tensor diff = layer.forward(x, true);
    diff -= t;
    const real scale = 1.0 / static_cast<real>(diff.size());
    real loss = 0.0;
    for (const auto v : diff.data()) loss += v * v;
    loss *= scale;
    diff *= 2.0 * scale;
    layer.backward(diff);
    opt.step();
    if (i == 0) first = loss;
    last = loss;
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

// deserialize_state copies into the model's own tensors, so every check —
// CRC, structure, tensor count, each shape — must finish before the first
// value lands: whatever fails, every parameter byte stays as it was.
TEST(ModelIo, DeserializeStateChecksEverythingBeforeCopyingInPlace) {
  common::Rng rng(34);
  const ImageSpec spec{3, 8, 8};
  auto live = make_mlp(spec, {16}, 4, rng);
  auto other = make_mlp(spec, {16}, 4, rng);
  const tensor::ByteBuffer before = serialize_state(*live);
  const tensor::ByteBuffer good = serialize_state(*other);

  tensor::ByteBuffer flipped = good;  // a bit of the last value
  flipped[flipped.size() - 5] ^= 0x01;
  EXPECT_THROW(deserialize_state(*live, flipped), ChecksumError);
  EXPECT_EQ(serialize_state(*live), before);

  auto state = snapshot_state(*other);  // only the FIRST tensor is off
  tensor::Shape wrong = state.front().shape();
  wrong.front() += 1;
  state.front() = tensor::Tensor(wrong);
  EXPECT_THROW(deserialize_state(*live, tensor::serialize_tensors(state)),
               ShapeError);
  EXPECT_EQ(serialize_state(*live), before);

  state = snapshot_state(*other);
  state.pop_back();
  EXPECT_THROW(deserialize_state(*live, tensor::serialize_tensors(state)),
               Error);
  EXPECT_EQ(serialize_state(*live), before);

  tensor::ByteBuffer cut(good.begin(), good.end() - 8);  // CRC still valid
  tensor::reseal_tensors(cut);
  EXPECT_THROW(deserialize_state(*live, cut), SerializationError);
  EXPECT_EQ(serialize_state(*live), before);

  // A good load lands in the storage the model already had.
  const real* storage = live->parameters().front()->value.data().data();
  deserialize_state(*live, good);
  EXPECT_EQ(live->parameters().front()->value.data().data(), storage);
  EXPECT_EQ(serialize_state(*live), good);
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

// ---- Parameters-only backward -----------------------------------------------
//
// backward_params() is the training step's backward: it must leave the
// same parameter-gradient bytes as backward(), while Sequential skips the
// children in front of its first parameterized one and Conv2d/Dense skip
// their input gradients.

using ModelFactory = std::unique_ptr<Sequential> (*)(common::Rng&);

std::vector<std::vector<std::uint64_t>> param_grad_bits(Sequential& net) {
  std::vector<std::vector<std::uint64_t>> bits;
  for (const Parameter* p : net.parameters()) bits.push_back(bits_of(p->grad));
  return bits;
}

/// Parameter-gradient bits of one forward + backward (or backward_params)
/// of a freshly seeded model, after a first step at another batch size so
/// the layers' caches are resized and the gradients accumulate.
std::vector<std::vector<std::uint64_t>> step_grad_bits(
    ModelFactory factory, const tensor::Shape& x_shape, bool params_only) {
  common::Rng rng(0xBAC4u);
  auto net = factory(rng);
  common::Rng data_rng(0xDA7Du);
  for (const index_t batch : {x_shape[0] + 1, x_shape[0]}) {
    tensor::Shape shape = x_shape;
    shape[0] = batch;
    const tensor::Tensor x = tensor::Tensor::randn(shape, data_rng);
    const tensor::Tensor y = net->forward(x, /*training=*/true);
    const tensor::Tensor gy = tensor::Tensor::randn(y.shape(), data_rng);
    if (params_only) {
      net->backward_params(gy);
    } else {
      net->backward(gy);
    }
  }
  return param_grad_bits(*net);
}

void expect_backward_params_matches(ModelFactory factory,
                                    const tensor::Shape& x_shape,
                                    const char* model) {
  for (const int threads : {1, 8}) {
    runtime::set_num_threads(threads);
    const auto full = step_grad_bits(factory, x_shape, /*params_only=*/false);
    const auto params = step_grad_bits(factory, x_shape, /*params_only=*/true);
    ASSERT_FALSE(full.empty()) << model;
    EXPECT_EQ(full, params) << model << ", " << threads << " threads";
  }
  runtime::set_num_threads(0);
}

TEST(BackwardParams, MiniConvNetGradientBytesMatchFullBackward) {
  expect_backward_params_matches(
      [](common::Rng& rng) {
        return make_mini_convnet({3, 12, 12}, 10, rng, 4);
      },
      {6, 3, 12, 12}, "MiniConvNet");
}

TEST(BackwardParams, MiniResNetGradientBytesMatchFullBackward) {
  // Stages 2 and 3 open with stride-2 residual convs and 1x1 projections.
  expect_backward_params_matches(
      [](common::Rng& rng) { return make_mini_resnet({3, 8, 8}, 10, rng, 4); },
      {3, 3, 8, 8}, "MiniResNet");
}

TEST(BackwardParams, MlpGradientBytesMatchFullBackward) {
  expect_backward_params_matches(
      [](common::Rng& rng) { return make_mlp({3, 4, 4}, {16, 8}, 5, rng); },
      {5, 3, 4, 4}, "MLP");
}

TEST(BackwardParams, LeadingParameterlessChildrenAreSkipped) {
  const ModelFactory factory = [](common::Rng& rng) {
    auto net = std::make_unique<Sequential>();
    net->emplace<ReLU>();
    net->emplace<MaxPool2d>(2, 2);
    net->emplace<Flatten>();
    net->emplace<Dense>(8, 6, rng);
    net->emplace<ReLU>();
    net->emplace<Dense>(6, 3, rng);
    return net;
  };
  expect_backward_params_matches(factory, {4, 2, 4, 4}, "ReLU-led stack");
  // The skipped children never see the gradient: a ReLU in front of the
  // first Dense would throw on a gradient of the wrong shape, but here
  // backward_params() returns before reaching it.
  common::Rng rng(0x5E9u);
  auto net = factory(rng);
  const tensor::Tensor x = tensor::Tensor::randn({4, 2, 4, 4}, rng);
  const tensor::Tensor y = net->forward(x, true);
  net->at(0).forward(tensor::Tensor::randn({1, 1}, rng), true);
  EXPECT_NO_THROW(net->backward_params(tensor::Tensor::randn(y.shape(), rng)));
  EXPECT_THROW(net->backward(tensor::Tensor::randn(y.shape(), rng)),
               ShapeError);
}

TEST(BackwardParams, Conv2dBackwardUsesTheLatestInput) {
  common::Rng data_rng(0xC0DEu);
  const tensor::Tensor first = tensor::Tensor::randn({5, 2, 6, 7}, data_rng);
  const tensor::Tensor second = tensor::Tensor::randn({3, 2, 6, 7}, data_rng);
  const tensor::Tensor gy = tensor::Tensor::randn({3, 4, 3, 4}, data_rng);
  common::Rng rng_a(0xC0u), rng_b(0xC0u);
  Conv2d conv(2, 4, 3, 2, 1, rng_a);
  Conv2d fresh(2, 4, 3, 2, 1, rng_b);
  conv.forward(first, true);
  EXPECT_EQ(bits_of(conv.forward(second, true)),
            bits_of(fresh.forward(second, true)));
  EXPECT_EQ(bits_of(conv.backward(gy)), bits_of(fresh.backward(gy)));
  EXPECT_EQ(bits_of(conv.weight().grad), bits_of(fresh.weight().grad));
  EXPECT_EQ(bits_of(conv.bias().grad), bits_of(fresh.bias().grad));
  // A gradient for the first batch no longer fits.
  EXPECT_THROW(conv.backward(tensor::Tensor::randn({5, 4, 3, 4}, data_rng)),
               Error);
}

TEST(BackwardParams, Conv2dBiasGradientIsTheAscendingChain) {
  // Per sample, each channel's bias term is one ascending-pixel chain from
  // +0.0; bias.grad folds the samples' terms in ascending n. The 5×7 output
  // (35 pixels) leaves a ragged tail in any pixel blocking, and the channel
  // counts cover a partial, a full, one and a half, and two 8-lane groups.
  // The gradient mixes magnitudes 1e16 apart, so any other association of
  // the adds moves the bits.
  for (const int threads : {1, 8}) {
    runtime::set_num_threads(threads);
    for (const index_t out_ch : {3, 8, 12, 16}) {
      const index_t batch = 3, pix = 5 * 7;
      common::Rng rng(0xB1A5u + out_ch);
      Conv2d conv(2, out_ch, 3, 1, 1, rng);
      const tensor::Tensor x = tensor::Tensor::randn({batch, 2, 5, 7}, rng);
      tensor::Tensor gy = tensor::Tensor::randn({batch, out_ch, 5, 7}, rng);
      for (index_t i = 0; i < gy.size(); i += 5) gy[i] *= 1e16;
      for (index_t i = 3; i < gy.size(); i += 11) gy[i] = -0.0;
      conv.forward(x, true);
      conv.backward(gy);
      std::vector<real> want(out_ch, 0.0);
      for (index_t n = 0; n < batch; ++n) {
        for (index_t c = 0; c < out_ch; ++c) {
          real s = 0.0;
          for (index_t p = 0; p < pix; ++p) s += gy[(n * out_ch + c) * pix + p];
          want[c] += s;
        }
      }
      EXPECT_EQ(bits_of(conv.bias().grad),
                bits_of(tensor::Tensor({out_ch}, want)))
          << out_ch << " channels, " << threads << " threads";
    }
  }
  runtime::set_num_threads(0);
}

TEST(BackwardParams, ConstForwardKeepsTheCallersTensorAndRvalueMatches) {
  common::Rng data_rng(0xF0u);
  const tensor::Tensor x = tensor::Tensor::randn({4, 3, 5, 6}, data_rng);
  const tensor::Tensor gy = tensor::Tensor::randn({4, 2, 5, 6}, data_rng);
  const std::vector<std::uint64_t> x_bits = bits_of(x);
  common::Rng rng_a(0xF1u), rng_b(0xF1u);
  Conv2d by_ref(3, 2, 3, 1, 1, rng_a);
  Conv2d by_move(3, 2, 3, 1, 1, rng_b);
  const tensor::Tensor y_ref = by_ref.forward(x, true);
  EXPECT_EQ(bits_of(x), x_bits);
  EXPECT_EQ(bits_of(by_move.forward(tensor::Tensor(x), true)), bits_of(y_ref));
  // Both caches hold the same input, so backward agrees too.
  EXPECT_EQ(bits_of(by_ref.backward(gy)), bits_of(by_move.backward(gy)));
  EXPECT_EQ(bits_of(by_ref.weight().grad), bits_of(by_move.weight().grad));
  EXPECT_EQ(bits_of(x), x_bits);
}

// ---- Fused ReLU→MaxPool -----------------------------------------------------
//
// Sequential runs a ReLU feeding a kernel == stride MaxPool2d as one pass.
// The differential drives the same freshly seeded stacks twice: through
// Sequential (fused wherever it applies) and child by child with lvalues
// (every layer standalone, as the round benchmark's replay does). Forward
// output, backward() and backward_params() must agree bit for bit, on
// activations seeded with ±0, ±inf and NaN windows and gradients seeded
// with ±0, ±inf and NaN.

/// Overwrites a fixed, seeded choice of activations with special values
/// (whole 2×2-aligned windows of one value, of mixed ±0, and single
/// elements); passes the gradient through unchanged.
class Specials : public Module {
 public:
  explicit Specials(std::uint64_t seed) : seed_(seed) {}
  using Module::forward;
  using Module::backward;
  tensor::Tensor forward(const tensor::Tensor& x, bool /*training*/) override {
    tensor::Tensor y = x;
    seed_specials(y, seed_);
    return y;
  }
  tensor::Tensor backward(const tensor::Tensor& g) override { return g; }
  [[nodiscard]] std::string name() const override { return "Specials"; }

  static void seed_specials(tensor::Tensor& t, std::uint64_t seed) {
    const real inf = std::numeric_limits<real>::infinity();
    const real nan = std::numeric_limits<real>::quiet_NaN();
    const real values[] = {0.0, -0.0, inf, -inf, nan, -1.0, 2.0};
    common::Rng rng(seed);
    auto pick = [&] { return values[rng.uniform_int(0, 6)]; };
    const index_t n = t.size();
    if (t.rank() == 4 && t.dim(3) >= 2 && t.dim(2) >= 2) {
      const index_t w = t.dim(3), planes = t.dim(0) * t.dim(1);
      for (int i = 0; i < 24; ++i) {
        // A 2×2 block at an even origin: a whole window of a 2/2 pool.
        const auto plane = static_cast<index_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(planes) - 1));
        const auto bi = static_cast<index_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(t.dim(2) / 2) - 1));
        const auto bj = static_cast<index_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(w / 2) - 1));
        real* top = t.data().data() + (plane * t.dim(2) + 2 * bi) * w + 2 * bj;
        const bool mixed = i % 3 == 0;
        const real v = pick();
        for (const index_t e : {index_t{0}, index_t{1}, w, w + 1}) {
          top[e] = mixed ? (rng.uniform_int(0, 1) ? 0.0 : -0.0) : v;
        }
      }
    }
    for (int i = 0; i < 16; ++i) {
      t[static_cast<index_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))] = pick();
    }
  }

 private:
  std::uint64_t seed_;
};

struct FusedCase {
  const char* name;
  bool fuses;  // whether Sequential runs a pair fused
  tensor::Shape x_shape;
  std::unique_ptr<Sequential> (*make)(common::Rng&);
};

// Conv(2→3) then the pair: fusible, with the specials injected between.
std::unique_ptr<Sequential> conv_relu_pool(common::Rng& rng, index_t pool_k,
                                           index_t pool_s, index_t features) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Conv2d>(2, 3, 3, 1, 1, rng);
  net->emplace<Specials>(0x5BEC1A1u);
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(pool_k, pool_s);
  net->emplace<Flatten>();
  net->emplace<Dense>(features, 4, rng);
  return net;
}

const FusedCase kFusedCases[] = {
    {"fused 2/2 on 8x6", true, {3, 2, 8, 6},
     [](common::Rng& rng) { return conv_relu_pool(rng, 2, 2, 3 * 4 * 3); }},
    {"fused 3/3 on 9x6", true, {2, 2, 9, 6},
     [](common::Rng& rng) { return conv_relu_pool(rng, 3, 3, 3 * 3 * 2); }},
    {"odd extents 7x5", false, {3, 2, 7, 5},
     [](common::Rng& rng) { return conv_relu_pool(rng, 2, 2, 3 * 3 * 2); }},
    {"pool 3/2", false, {2, 2, 8, 6},
     [](common::Rng& rng) { return conv_relu_pool(rng, 3, 2, 3 * 3 * 2); }},
    {"pair alone behind a pass-through", true, {3, 2, 8, 6},
     [](common::Rng&) {
       // The seeded gradient reaches the pair, and backward() returns the
       // pair's input gradient itself.
       auto net = std::make_unique<Sequential>();
       net->emplace<Specials>(0x9A55u);
       net->emplace<ReLU>();
       net->emplace<MaxPool2d>(2, 2);
       return net;
     }},
    {"pair at the end", true, {2, 2, 6, 6},
     [](common::Rng& rng) {
       auto net = std::make_unique<Sequential>();
       net->emplace<Conv2d>(2, 3, 3, 1, 1, rng);
       net->emplace<Specials>(0xE4Du);
       net->emplace<ReLU>();
       net->emplace<MaxPool2d>(2, 2);
       return net;
     }},
    {"ReLU first", false, {2, 2, 6, 6},
     [](common::Rng& rng) {
       auto net = std::make_unique<Sequential>();
       net->emplace<ReLU>();
       net->emplace<MaxPool2d>(2, 2);
       net->emplace<Conv2d>(2, 3, 3, 1, 1, rng);
       net->emplace<ReLU>();
       return net;
     }},
    {"pool first, ReLU last", false, {2, 2, 6, 6},
     [](common::Rng& rng) {
       auto net = std::make_unique<Sequential>();
       net->emplace<MaxPool2d>(2, 2);
       net->emplace<Conv2d>(2, 3, 3, 1, 1, rng);
       net->emplace<Specials>(0xF125u);
       net->emplace<ReLU>();
       return net;
     }},
};

struct StepBits {
  std::vector<std::uint64_t> y, grad_x;
  std::vector<std::vector<std::uint64_t>> params;
  bool fused = false;
};

/// Forward and backward through Sequential (`params_only` ends with
/// backward_params and records no grad_x).
StepBits sequential_step(const FusedCase& c, std::uint64_t seed,
                         const tensor::Tensor& x, const tensor::Tensor& gy,
                         bool params_only) {
  common::Rng rng(seed);
  auto net = c.make(rng);
  StepBits out;
  out.y = bits_of(net->forward(x, /*training=*/true));
  for (index_t i = 0; i < net->size(); ++i) {
    const auto* pool = dynamic_cast<const MaxPool2d*>(&net->at(i));
    out.fused = out.fused || (pool != nullptr && pool->relu_fused());
  }
  if (params_only) {
    net->backward_params(gy);
  } else {
    out.grad_x = bits_of(net->backward(gy));
  }
  out.params = param_grad_bits(*net);
  return out;
}

/// The same step one child at a time, every child handed an lvalue.
StepBits child_by_child_step(const FusedCase& c, std::uint64_t seed,
                             const tensor::Tensor& x,
                             const tensor::Tensor& gy) {
  common::Rng rng(seed);
  auto net = c.make(rng);
  tensor::Tensor h = x;
  for (index_t i = 0; i < net->size(); ++i) {
    const tensor::Tensor in = h;
    h = net->at(i).forward(in, /*training=*/true);
  }
  StepBits out;
  out.y = bits_of(h);
  tensor::Tensor g = gy;
  for (index_t i = net->size(); i-- > 0;) {
    const tensor::Tensor in = g;
    g = net->at(i).backward(in);
  }
  out.grad_x = bits_of(g);
  out.params = param_grad_bits(*net);
  return out;
}

TEST(FusedReluPool, MatchesChildByChildBitForBit) {
  for (const int threads : {1, 8}) {
    runtime::set_num_threads(threads);
    for (const FusedCase& c : kFusedCases) {
      for (std::uint64_t trial = 0; trial < 4; ++trial) {
        const std::uint64_t seed = 0xF05Eu + trial;
        common::Rng data_rng(seed * 7919u);
        tensor::Tensor x = tensor::Tensor::randn(c.x_shape, data_rng);
        Specials::seed_specials(x, seed);
        common::Rng probe_rng(seed);
        const tensor::Tensor y_shape_probe =
            c.make(probe_rng)->forward(x, /*training=*/false);
        tensor::Tensor gy =
            tensor::Tensor::randn(y_shape_probe.shape(), data_rng);
        Specials::seed_specials(gy, seed + 1);
        const StepBits want = child_by_child_step(c, seed, x, gy);
        const StepBits full = sequential_step(c, seed, x, gy, false);
        const StepBits params = sequential_step(c, seed, x, gy, true);
        const std::string at = std::string(c.name) + ", trial " +
                               std::to_string(trial) + ", " +
                               std::to_string(threads) + " threads";
        EXPECT_EQ(full.fused, c.fuses) << at;
        EXPECT_EQ(full.y, want.y) << at;
        EXPECT_EQ(full.grad_x, want.grad_x) << at;
        EXPECT_EQ(full.params, want.params) << at;
        EXPECT_EQ(params.y, want.y) << at;
        EXPECT_EQ(params.params, want.params) << at;
      }
    }
  }
  runtime::set_num_threads(0);
}

/// 2×2 windows (taps 0, 1, w, w+1) that are each a special case of the
/// fused pair's exactness rule: all NaN, all −inf, −1 then −0.0 (pool-first
/// would give −0.0, the pair +0.0), −0.0 then +0.0, +0.0 then −0.0, NaN
/// then 1, ties, and a positive maximum after negatives.
const std::vector<std::vector<real>>& special_windows() {
  const real inf = std::numeric_limits<real>::infinity();
  const real nan = std::numeric_limits<real>::quiet_NaN();
  static const std::vector<std::vector<real>> windows = {
      {nan, nan, nan, nan},     {-inf, -inf, -inf, -inf},
      {-1.0, -0.0, -2.0, -3.0}, {-0.0, 0.0, -1.0, -1.0},
      {0.0, -0.0, -1.0, -1.0},  {nan, 1.0, -1.0, 0.5},
      {2.0, 2.0, 2.0, 2.0},     {-1.0, -2.0, 3.0, -4.0},
      {inf, nan, -inf, 1.0},    {-inf, -0.0, nan, -1.0}};
  return windows;
}

TEST(FusedReluPool, SpecialWindowsMatchTheUnfusedPair) {
  // Every window of one sample-plane is a special window. The gradient
  // carries −0.0, NaN and ±inf.
  const real inf = std::numeric_limits<real>::infinity();
  const real nan = std::numeric_limits<real>::quiet_NaN();
  const std::vector<std::vector<real>>& windows = special_windows();
  const index_t count = windows.size();
  // One plane of 2 × count windows laid out as a 2 × (2·count) image.
  std::vector<real> values(4 * count);
  for (index_t i = 0; i < count; ++i) {
    values[2 * i] = windows[i][0];
    values[2 * i + 1] = windows[i][1];
    values[2 * count + 2 * i] = windows[i][2];
    values[2 * count + 2 * i + 1] = windows[i][3];
  }
  std::vector<real> grads(count);
  const real g_values[] = {1.5, -0.0, nan, inf, -inf, -2.0};
  for (index_t i = 0; i < count; ++i) grads[i] = g_values[i % 6];
  // The second plane repeats the first with the gradient rotated.
  std::vector<real> x_values = values;
  x_values.insert(x_values.end(), values.begin(), values.end());
  std::vector<real> g2 = grads;
  std::rotate(g2.begin(), g2.begin() + 1, g2.end());
  grads.insert(grads.end(), g2.begin(), g2.end());
  const tensor::Tensor x({2, 1, 2, 2 * count}, x_values);
  const tensor::Tensor gy({2, 1, 1, count}, grads);

  ReLU relu;
  MaxPool2d pool(2, 2);
  const tensor::Tensor want_y = pool.forward(relu.forward(x, true), true);
  const tensor::Tensor want_gx = relu.backward(pool.backward(gy));

  MaxPool2d fused(2, 2);
  ASSERT_TRUE(fused.tiles(x));
  EXPECT_EQ(bits_of(fused.forward_relu(tensor::Tensor(x), true)),
            bits_of(want_y));
  EXPECT_TRUE(fused.relu_fused());
  EXPECT_EQ(bits_of(fused.backward_relu(gy)), bits_of(want_gx));
  // The pair's backward after an eval forward allocates its own storage.
  fused.forward_relu(tensor::Tensor(x), false);
  EXPECT_EQ(bits_of(fused.backward_relu(gy)), bits_of(want_gx));
  // A standalone backward after a fused forward is refused.
  EXPECT_THROW(fused.backward(gy), Error);
}

TEST(FusedReluPool, SpecialWindowsAtEveryLaneMatchTheUnfusedPair) {
  // The 2/2 pair scans several windows per vector step and finishes a
  // ragged row with a step of its own, so each special window is placed in
  // every output column (first, middle and last lanes of a step, the
  // ragged tail included) of widths around the step, over six planes of
  // three output rows, with ties between every later pair of taps, where
  // only the scan order picks the routed element. The rest of the windows
  // are random, and the gradient cycles through −0.0, NaN and ±inf.
  const real inf = std::numeric_limits<real>::infinity();
  const real nan = std::numeric_limits<real>::quiet_NaN();
  std::vector<std::vector<real>> windows = special_windows();
  windows.push_back({0.5, 3.0, 3.0, 3.0});
  windows.push_back({0.5, 2.0, 3.0, 3.0});
  windows.push_back({0.5, 3.0, 2.0, 3.0});
  const index_t count = windows.size();
  const real g_values[] = {1.5, -0.0, nan, inf, -inf, -2.0, 0.25};
  for (const index_t ow : {1, 2, 3, 5, 6, 7, 12}) {
    const index_t oh = 3, w = 2 * ow;
    const tensor::Shape shape = {2, 3, 2 * oh, w};
    const index_t windows_total = 2 * 3 * oh * ow;
    // Shift s puts pattern (q + s) mod (count + 1) at window q; pattern
    // `count` leaves the random values.
    for (index_t shift = 0; shift <= count; ++shift) {
      common::Rng rng(0x1A9E0u + ow * 131 + shift);
      tensor::Tensor x = tensor::Tensor::randn(shape, rng);
      for (index_t q = 0; q < windows_total; ++q) {
        const index_t pattern = (q + shift) % (count + 1);
        if (pattern == count) continue;
        const index_t r = q / ow, j = q % ow;
        real* top = x.data().data() + 2 * r * w + 2 * j;
        const std::vector<real>& win = windows[pattern];
        top[0] = win[0];
        top[1] = win[1];
        top[w] = win[2];
        top[w + 1] = win[3];
      }
      tensor::Tensor gy = tensor::Tensor::randn({2, 3, oh, ow}, rng);
      for (index_t q = shift % 3; q < windows_total; q += 3) {
        gy[q] = g_values[(q + shift) % std::size(g_values)];
      }

      ReLU relu;
      MaxPool2d pool(2, 2);
      const tensor::Tensor want_y = pool.forward(relu.forward(x, true), true);
      const tensor::Tensor want_gx = relu.backward(pool.backward(gy));

      const std::string at =
          "ow " + std::to_string(ow) + ", shift " + std::to_string(shift);
      MaxPool2d fused(2, 2);
      ASSERT_TRUE(fused.tiles(x)) << at;
      EXPECT_EQ(bits_of(fused.forward_relu(tensor::Tensor(x), true)),
                bits_of(want_y))
          << at;
      EXPECT_EQ(bits_of(fused.backward_relu(gy)), bits_of(want_gx)) << at;
      fused.forward_relu(tensor::Tensor(x), false);
      EXPECT_EQ(bits_of(fused.backward_relu(gy)), bits_of(want_gx)) << at;
    }
  }
}

// ---- Cross-commit byte pin --------------------------------------------------
//
// The golden fixture replays an MLP and KernelDiff compares blocked against
// naive inside one build, so neither notices a kernel edit that moves the
// bytes a Conv2d emits. This pins the CRC32C of every tensor one
// MiniConvNet forward+backward produces (the oasis_convnet model, width 8,
// 24×24, B=16) to constants recorded before ragged GEMM tiles were routed
// through the SIMD register kernels. DESIGN.md §5k makes the bits
// independent of the kernel path, so the same constants hold under the
// blocked kernel and under the naive oracle. Labelled `kernel` too, so
// ci.sh's kernel stage replays it under ASan/UBSan.

struct PinnedCrc {
  const char* tensor;
  std::uint32_t crc;
};

constexpr PinnedCrc kMiniConvNetCrcs[] = {
    {"logits", 0xEF38E860u},         {"grad_x", 0x02742321u},
    {"0.conv.weight", 0xC1EC833Bu},  {"0.conv.bias", 0x7AB2AD7Bu},
    {"3.conv.weight", 0x7C1CC13Cu},  {"3.conv.bias", 0x8DF33D4Au},
    {"7.dense.weight", 0x6A00B8BEu}, {"7.dense.bias", 0x2B2976B5u},
    {"9.dense.weight", 0x1EAB2F42u}, {"9.dense.bias", 0xFC98D7D2u},
};

std::uint32_t tensor_crc(const tensor::Tensor& t) {
  return common::crc32c(t.data().data(), t.size() * sizeof(real));
}

std::vector<std::uint32_t> mini_convnet_crcs() {
  common::Rng rng(0xC0417u);
  auto net = make_mini_convnet({3, 24, 24}, 10, rng, 8);
  common::Rng data_rng(0xDA7Cu);
  tensor::Tensor x({16, 3, 24, 24});
  for (auto& v : x.data()) v = data_rng.uniform(-1.0, 1.0);
  const tensor::Tensor logits = net->forward(x, /*training=*/true);
  tensor::Tensor gy(logits.shape());
  for (auto& v : gy.data()) v = data_rng.uniform(-1.0, 1.0);
  const tensor::Tensor grad_x = net->backward(gy);
  std::vector<std::uint32_t> crcs = {tensor_crc(logits), tensor_crc(grad_x)};
  for (const Parameter* p : net->parameters()) {
    crcs.push_back(tensor_crc(p->grad));
  }
  return crcs;
}

// One training step of the oasis_convnet model (forward plus
// backward_params, B = 16) issues these kernel counts: two conv products
// per sample per layer, Dense's three GEMMs each minus the first layer's
// input gradient, and one lowering per conv product. A conv path that
// bypasses the counting entry, or splits a product, moves them.
TEST(KernelCounts, MiniConvNetTrainingStepIsUnchanged) {
  struct MetricsGuard {
    ~MetricsGuard() { obs::set_kernel_metrics(false); }
  } guard;
  obs::set_kernel_metrics(true);
  common::Rng rng(0xC0417u);
  auto net = make_mini_convnet({3, 24, 24}, 10, rng, 8);
  common::Rng data_rng(0xDA7Cu);
  tensor::Tensor x({16, 3, 24, 24});
  for (auto& v : x.data()) v = data_rng.uniform(-1.0, 1.0);
  obs::Counter& calls = obs::counter("kernel.gemm.calls");
  obs::Counter& flops = obs::counter("kernel.gemm.flops");
  obs::Counter& lowerings = obs::counter("kernel.im2col.calls");
  for (const int threads : {1, 8}) {
    runtime::set_num_threads(threads);
    calls.reset();
    flops.reset();
    lowerings.reset();
    const tensor::Tensor logits = net->forward(x, /*training=*/true);
    net->backward_params(tensor::Tensor(logits.shape()));
    EXPECT_EQ(calls.value(), 86u) << threads << " threads";
    EXPECT_EQ(flops.value(), 31088640u) << threads << " threads";
    EXPECT_EQ(lowerings.value(), 64u) << threads << " threads";
  }
  runtime::set_num_threads(0);
}

TEST(MiniConvNetPin, ForwardBackwardCrcsMatchUnderEveryIsa) {
  for (const bool naive : {false, true}) {
    tensor::gemm::set_naive(naive);
    const std::vector<std::uint32_t> crcs = mini_convnet_crcs();
    tensor::gemm::set_naive(false);
    ASSERT_EQ(crcs.size(), std::size(kMiniConvNetCrcs));
    for (std::size_t i = 0; i < crcs.size(); ++i) {
      char got[16];
      std::snprintf(got, sizeof(got), "0x%08Xu", crcs[i]);
      EXPECT_EQ(crcs[i], kMiniConvNetCrcs[i].crc)
          << (naive ? "naive " : "blocked ") << kMiniConvNetCrcs[i].tensor
          << " crc " << got;
    }
  }
}

}  // namespace
}  // namespace oasis::nn

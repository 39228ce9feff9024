// Metrics tests: PSNR/MSE properties, box statistics, accuracy.
#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "metrics/accuracy.h"
#include "metrics/psnr.h"
#include "metrics/stats.h"
#include "nn/dense.h"
#include "nn/models.h"

namespace oasis::metrics {
namespace {

TEST(Psnr, IdenticalImagesHitTheCap) {
  common::Rng rng(1);
  tensor::Tensor img = tensor::Tensor::rand({3, 8, 8}, rng);
  EXPECT_DOUBLE_EQ(psnr(img, img), kPsnrCap);
}

TEST(Psnr, KnownMseValue) {
  tensor::Tensor a({1, 1, 4}, {0.0, 0.0, 0.0, 0.0});
  tensor::Tensor b({1, 1, 4}, {0.1, 0.1, 0.1, 0.1});
  EXPECT_NEAR(mse(a, b), 0.01, 1e-15);
  EXPECT_NEAR(psnr(a, b), 10.0 * std::log10(1.0 / 0.01), 1e-9);  // 20 dB
}

TEST(Psnr, PerfectDoubleReconstructionLandsInPaperBand) {
  // A reconstruction correct to ~1e-7 per pixel (double-precision gradient
  // ratio error) scores in the paper's 130-145 dB "verbatim copy" band.
  common::Rng rng(2);
  tensor::Tensor img = tensor::Tensor::rand({3, 16, 16}, rng);
  tensor::Tensor recon = img;
  common::Rng noise(3);
  for (auto& v : recon.data()) v += noise.normal(0.0, 3e-7);
  const real p = psnr(recon, img);
  EXPECT_GT(p, 125.0);
  EXPECT_LT(p, 155.0);
}

TEST(Psnr, SymmetricInArguments) {
  common::Rng rng(4);
  tensor::Tensor a = tensor::Tensor::rand({3, 8, 8}, rng);
  tensor::Tensor b = tensor::Tensor::rand({3, 8, 8}, rng);
  EXPECT_DOUBLE_EQ(psnr(a, b), psnr(b, a));
}

TEST(Psnr, MonotoneInNoise) {
  common::Rng rng(5);
  tensor::Tensor img = tensor::Tensor::rand({3, 8, 8}, rng);
  real prev = kPsnrCap;
  for (const real sigma : {0.001, 0.01, 0.05, 0.2}) {
    tensor::Tensor noisy = img;
    common::Rng n(6);
    for (auto& v : noisy.data()) v += n.normal(0.0, sigma);
    const real p = psnr(noisy, img);
    EXPECT_LT(p, prev);
    prev = p;
  }
}

TEST(Psnr, ShapeMismatchThrows) {
  EXPECT_THROW(mse(tensor::Tensor({3, 4, 4}), tensor::Tensor({3, 5, 5})),
               ShapeError);
}

TEST(Stats, KnownQuartiles) {
  const BoxStats s = box_stats({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.q1, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.q3, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_EQ(s.count, 5u);
}

TEST(Stats, InterpolatedQuantiles) {
  const BoxStats s = box_stats({0.0, 1.0});
  EXPECT_DOUBLE_EQ(s.q1, 0.25);
  EXPECT_DOUBLE_EQ(s.median, 0.5);
  EXPECT_DOUBLE_EQ(s.q3, 0.75);
}

TEST(Stats, SingleValue) {
  const BoxStats s = box_stats({7.0});
  EXPECT_DOUBLE_EQ(s.min, 7.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
  EXPECT_DOUBLE_EQ(s.median, 7.0);
  EXPECT_EQ(s.count, 1u);
}

TEST(Stats, EmptyThrows) { EXPECT_THROW(box_stats({}), Error); }

TEST(Stats, FormattedRowContainsAllFields) {
  const std::string row = format_box_row("MR", box_stats({1, 2, 3}));
  EXPECT_NE(row.find("MR"), std::string::npos);
  EXPECT_NE(row.find("1.00"), std::string::npos);
  EXPECT_NE(row.find("3.00"), std::string::npos);
  EXPECT_EQ(box_row_header("transform").size(), row.size());
}

TEST(Accuracy, PerfectAndRandomModels) {
  // Construct a dataset and a model that classifies by construction: the
  // linear layer reads a one-hot pixel per class.
  const index_t classes = 4;
  data::InMemoryDataset ds(classes, {1, 2, 2});
  for (index_t c = 0; c < classes; ++c) {
    for (int rep = 0; rep < 3; ++rep) {
      tensor::Tensor img({1, 2, 2});
      img[c] = 1.0;
      ds.push_back({img, c});
    }
  }
  common::Rng rng(9);
  auto model = nn::make_linear_model({1, 2, 2}, classes, rng);
  // Weight = identity → logit c equals pixel c.
  auto* dense = dynamic_cast<nn::Dense*>(&model->at(1));
  ASSERT_NE(dense, nullptr);
  dense->weight().value.fill(0.0);
  for (index_t c = 0; c < classes; ++c) dense->weight().value.at2(c, c) = 1.0;
  dense->bias().value.fill(0.0);
  EXPECT_DOUBLE_EQ(accuracy(*model, ds), 1.0);

  // Anti-diagonal weights misclassify everything.
  dense->weight().value.fill(0.0);
  for (index_t c = 0; c < classes; ++c)
    dense->weight().value.at2(c, classes - 1 - c) = 1.0;
  EXPECT_DOUBLE_EQ(accuracy(*model, ds), 0.0);
}

TEST(Accuracy, TopKIsMonotone) {
  auto cfg = data::synth_imagenet_config();
  cfg.num_classes = 6;
  cfg.train_per_class = 2;
  cfg.test_per_class = 2;
  cfg.height = cfg.width = 16;
  auto ds = data::generate(cfg);
  common::Rng rng(10);
  auto model = nn::make_mlp({3, 16, 16}, {8}, 6, rng);
  const real top1 = top_k_accuracy(*model, ds.test, 1);
  const real top3 = top_k_accuracy(*model, ds.test, 3);
  const real top6 = top_k_accuracy(*model, ds.test, 6);
  EXPECT_LE(top1, top3);
  EXPECT_LE(top3, top6);
  EXPECT_DOUBLE_EQ(top6, 1.0);
}

}  // namespace
}  // namespace oasis::metrics

// Cross-module property sweeps (parameterized): conv gradient correctness
// over layer geometries, warp inverse consistency over angles, FedAvg
// algebraic identities, and defense-invariant batch properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>

#include "attack/calibration.h"
#include "augment/affine.h"
#include "augment/policy.h"
#include "fl/aggregation.h"
#include "fl/population.h"
#include "fl/shard.h"
#include "nn/conv2d.h"
#include "nn/model_io.h"
#include "nn/models.h"
#include "runtime/parallel.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace oasis {
namespace {

// ---- Conv2d geometry sweep --------------------------------------------------

using ConvGeometry = std::tuple<int /*in_ch*/, int /*out_ch*/, int /*kernel*/,
                                int /*stride*/, int /*pad*/>;

class ConvGeometrySweep : public ::testing::TestWithParam<ConvGeometry> {};

TEST_P(ConvGeometrySweep, GradientsMatchFiniteDifferences) {
  const auto [in_ch, out_ch, kernel, stride, pad] = GetParam();
  common::Rng rng(static_cast<std::uint64_t>(in_ch * 1000 + out_ch * 100 +
                                             kernel * 10 + stride));
  nn::Conv2d conv(in_ch, out_ch, kernel, stride, pad, rng);
  tensor::Tensor x = tensor::Tensor::randn(
      {2, static_cast<index_t>(in_ch), 7, 7}, rng);
  EXPECT_LT(testutil::check_gradients(conv, x, rng), 3e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGeometrySweep,
    ::testing::Values(ConvGeometry{1, 1, 1, 1, 0},   // pointwise
                      ConvGeometry{2, 3, 3, 1, 1},   // same-pad 3x3
                      ConvGeometry{3, 2, 3, 2, 1},   // strided
                      ConvGeometry{1, 4, 5, 1, 2},   // large kernel
                      ConvGeometry{2, 2, 3, 3, 0})); // stride > 1, no pad

// ---- Warp inverse consistency ----------------------------------------------

class RotationAngleSweep : public ::testing::TestWithParam<double> {};

TEST_P(RotationAngleSweep, RotateThenUnrotateIsNearIdentityInTheInterior) {
  const real theta = GetParam();
  common::Rng rng(11);
  tensor::Tensor img = tensor::Tensor::rand({3, 24, 24}, rng);
  const tensor::Tensor back =
      augment::rotate(augment::rotate(img, theta), -theta);
  // Only the central disc survives both zero-filled warps; compare there.
  real max_err = 0.0;
  const real c = 11.5;
  for (index_t ch = 0; ch < 3; ++ch) {
    for (index_t i = 0; i < 24; ++i) {
      for (index_t j = 0; j < 24; ++j) {
        const real r = std::hypot(static_cast<real>(i) - c,
                                  static_cast<real>(j) - c);
        if (r > 7.0) continue;
        max_err = std::max(max_err,
                           std::abs(back.at3(ch, i, j) - img.at3(ch, i, j)));
      }
    }
  }
  // Bilinear resampling twice smooths but must stay close.
  EXPECT_LT(max_err, 0.35) << "theta=" << theta;
}

INSTANTIATE_TEST_SUITE_P(Angles, RotationAngleSweep,
                         ::testing::Values(0.1, 0.35, 0.7, 1.1, 1.4));

class ShearFactorSweep : public ::testing::TestWithParam<double> {};

TEST_P(ShearFactorSweep, ShearThenUnshearIsNearIdentityInTheInterior) {
  const real mu = GetParam();
  common::Rng rng(12);
  tensor::Tensor img = tensor::Tensor::rand({3, 24, 24}, rng);
  const tensor::Tensor back = augment::shear(augment::shear(img, mu), -mu);
  real max_err = 0.0;
  for (index_t ch = 0; ch < 3; ++ch) {
    for (index_t i = 8; i < 16; ++i) {
      for (index_t j = 8; j < 16; ++j) {
        max_err = std::max(max_err,
                           std::abs(back.at3(ch, i, j) - img.at3(ch, i, j)));
      }
    }
  }
  EXPECT_LT(max_err, 0.35) << "mu=" << mu;
}

INSTANTIATE_TEST_SUITE_P(Factors, ShearFactorSweep,
                         ::testing::Values(0.1, 0.25, 0.4, 0.6));

// ---- FedAvg algebra ----------------------------------------------------------

/// Example-weighted FedAvg (paper Eq. 1) of `updates`, folded in order.
std::vector<tensor::Tensor> fedavg(
    const std::vector<fl::ClientUpdateMessage>& updates) {
  fl::FedAvgAccumulator acc;
  for (const auto& u : updates) acc.add(u);
  return acc.average();
}

/// The plain 1/M mean: every update folded with weight 1.
std::vector<tensor::Tensor> unweighted_mean(
    const std::vector<fl::ClientUpdateMessage>& updates) {
  fl::FedAvgAccumulator acc;
  for (const auto& u : updates) {
    acc.add(tensor::deserialize_tensors(u.gradients), 1.0);
  }
  return acc.average();
}

TEST(FedAvgAlgebra, AverageOfIdenticalUpdatesIsTheUpdate) {
  common::Rng rng(13);
  const tensor::Tensor g = tensor::Tensor::randn({6}, rng);
  std::vector<fl::ClientUpdateMessage> updates(3);
  for (std::size_t i = 0; i < 3; ++i) {
    updates[i].client_id = i;
    updates[i].num_examples = 4;
    updates[i].gradients = tensor::serialize_tensors({g});
  }
  const auto avg = fedavg(updates);
  EXPECT_TRUE(tensor::allclose(avg[0], g));
}

TEST(FedAvgAlgebra, WeightedAverageIsConvexCombination) {
  common::Rng rng(14);
  const tensor::Tensor a = tensor::Tensor::randn({5}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({5}, rng);
  std::vector<fl::ClientUpdateMessage> updates(2);
  updates[0].num_examples = 1;
  updates[0].gradients = tensor::serialize_tensors({a});
  updates[1].num_examples = 3;
  updates[1].gradients = tensor::serialize_tensors({b});
  const auto avg = fedavg(updates);
  // Result must lie between min and max coordinatewise (convexity).
  for (index_t i = 0; i < 5; ++i) {
    EXPECT_GE(avg[0][i], std::min(a[i], b[i]) - 1e-12);
    EXPECT_LE(avg[0][i], std::max(a[i], b[i]) + 1e-12);
  }
  // And exactly (a + 3b)/4.
  tensor::Tensor expected = a;
  expected.add_scaled_(b, 3.0);
  expected /= 4.0;
  EXPECT_TRUE(tensor::allclose(avg[0], expected));
}

// ---- Defense batch invariants -----------------------------------------------

TEST(DefenseInvariants, AugmentedBatchNeverMutatesOriginals) {
  common::Rng rng(15);
  const tensor::Tensor images = tensor::Tensor::rand({3, 3, 12, 12}, rng);
  data::Batch batch{images, {0, 1, 2}};
  for (const auto& kinds :
       {std::vector<augment::TransformKind>{
            augment::TransformKind::kMajorRotation},
        std::vector<augment::TransformKind>{
            augment::TransformKind::kMajorRotation,
            augment::TransformKind::kShear}}) {
    const auto policy = augment::make_policy(kinds);
    const data::Batch out = policy.augment(batch, rng);
    // The original slots are bit-identical and the input batch is untouched.
    EXPECT_TRUE(batch.images == images);
    for (index_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(out.images.slice(i) == images.slice(i));
    }
  }
}

TEST(DefenseInvariants, EveryVariantSharesItsOriginalsMean) {
  // The Proposition 1 mechanism, checked across every policy the benches
  // use: all variants carry the original's mean brightness to ~1e-12.
  common::Rng rng(16);
  const tensor::Tensor img = tensor::Tensor::rand({3, 16, 16}, rng);
  using augment::TransformKind;
  for (const auto& kinds : {std::vector<TransformKind>{TransformKind::kMajorRotation},
                            std::vector<TransformKind>{TransformKind::kMinorRotation},
                            std::vector<TransformKind>{TransformKind::kShear},
                            std::vector<TransformKind>{TransformKind::kHorizontalFlip},
                            std::vector<TransformKind>{TransformKind::kVerticalFlip},
                            std::vector<TransformKind>{TransformKind::kMajorRotation,
                                                       TransformKind::kShear}}) {
    const auto policy = augment::make_policy(kinds);
    for (const auto& v : policy.variants(img, rng)) {
      EXPECT_NEAR(v.mean(), img.mean(), 1e-12) << policy.label();
    }
  }
}

// ---- FedAvg order/scale properties ------------------------------------------

std::vector<fl::ClientUpdateMessage> random_updates(std::uint64_t seed,
                                                    index_t clients,
                                                    index_t dim) {
  common::Rng rng(seed);
  std::vector<fl::ClientUpdateMessage> updates(clients);
  for (index_t i = 0; i < clients; ++i) {
    updates[i].client_id = i;
    updates[i].num_examples =
        static_cast<std::uint64_t>(rng.uniform_int(1, 16));
    updates[i].gradients = tensor::serialize_tensors(
        {tensor::Tensor::randn({dim}, rng),
         tensor::Tensor::randn({dim / 2}, rng)});
  }
  return updates;
}

TEST(FedAvgAlgebra, AverageIsInvariantUnderClientOrderPermutation) {
  // FedAvg is a weighted mean — a set operation. Reordering the client
  // updates permutes the float accumulation order, so the results may
  // differ in the last bits but never beyond.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto updates = random_updates(seed, 5, 8);
    const auto base = fedavg(updates);

    auto reversed = updates;
    std::reverse(reversed.begin(), reversed.end());
    auto rotated = updates;
    std::rotate(rotated.begin(), rotated.begin() + 2, rotated.end());

    for (const auto& permuted : {reversed, rotated}) {
      const auto avg = fedavg(permuted);
      ASSERT_EQ(avg.size(), base.size());
      for (std::size_t t = 0; t < base.size(); ++t) {
        EXPECT_TRUE(tensor::allclose(avg[t], base[t], 1e-12, 1e-12))
            << "seed " << seed << " tensor " << t;
      }
    }
  }
}

TEST(FedAvgAlgebra, AverageIsHomogeneousInExampleWeights) {
  // Scaling every client's num_examples by the same factor cancels in
  // Eq. 1: sum(c*w_i*g_i) / sum(c*w_i) = sum(w_i*g_i) / sum(w_i).
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto updates = random_updates(seed ^ 0xABCD, 4, 6);
    auto scaled = updates;
    for (auto& u : scaled) u.num_examples *= 3;
    const auto base = fedavg(updates);
    const auto avg = fedavg(scaled);
    for (std::size_t t = 0; t < base.size(); ++t) {
      EXPECT_TRUE(tensor::allclose(avg[t], base[t], 1e-12, 1e-12))
          << "seed " << seed;
    }
  }
}

TEST(FedAvgAlgebra, UniformWeightsMatchUnweightedAverage) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto updates = random_updates(seed ^ 0x77, 6, 5);
    for (auto& u : updates) u.num_examples = 7;
    const auto weighted = fedavg(updates);
    const auto unweighted = unweighted_mean(updates);
    for (std::size_t t = 0; t < weighted.size(); ++t) {
      EXPECT_TRUE(tensor::allclose(weighted[t], unweighted[t], 1e-12, 1e-12))
          << "seed " << seed;
    }
  }
}

// ---- RTF calibration cutoffs ------------------------------------------------

TEST(RtfCalibration, QuantileCutoffsAreMonotoneForRandomSamples) {
  // The RTF bin boundaries are empirical quantiles at increasing levels;
  // they must be ascending (and inside the sample's range) for every
  // sample, otherwise the bin logic would assign one gradient difference
  // to two bins.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    common::Rng rng(seed);
    std::vector<real> sample;
    const index_t size = 16 + (seed % 50);
    sample.reserve(size);
    for (index_t i = 0; i < size; ++i) {
      sample.push_back(rng.normal() * (1.0 + static_cast<real>(seed % 7)));
    }
    const index_t bins = 2 + (seed % 30);
    const auto cutoffs = attack::quantile_cutoffs(sample, bins);
    ASSERT_EQ(cutoffs.size(), bins) << "seed " << seed;
    EXPECT_TRUE(std::is_sorted(cutoffs.begin(), cutoffs.end()))
        << "seed " << seed;
    const auto [mn, mx] = std::minmax_element(sample.begin(), sample.end());
    EXPECT_GE(cutoffs.front(), *mn) << "seed " << seed;
    EXPECT_LE(cutoffs.back(), *mx) << "seed " << seed;
  }
}

// ---- Blocked-GEMM algebra ---------------------------------------------------
//
// These run on the default (blocked) kernel path and pin the algebraic
// identities the packing/tiling must preserve. The first three are EXACT:
// identity columns, transposed evaluation order, and row/column block
// partitions all execute the same per-element multiply-add chain, so even
// the bits must agree. Only the k-partition test tolerates rounding, since
// splitting k regroups the accumulation.

bool same_bits(const tensor::Tensor& a, const tensor::Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(real)) == 0;
}

TEST(GemmAlgebra, MultiplyByIdentityIsTheInput) {
  common::Rng rng(9001);
  const index_t m = 37, k = 21;
  const tensor::Tensor a = tensor::Tensor::rand({m, k}, rng, -1.0, 1.0);
  tensor::Tensor eye({k, k});
  for (index_t i = 0; i < k; ++i) eye.at2(i, i) = 1.0;
  const tensor::Tensor prod = tensor::matmul(a, eye);
  ASSERT_EQ(prod.shape(), a.shape());
  for (index_t i = 0; i < m * k; ++i) EXPECT_EQ(prod[i], a[i]) << "i=" << i;
}

TEST(GemmAlgebra, TransposeOfProductIsReversedTransposedProduct) {
  // (A·B)ᵀ and Bᵀ·Aᵀ accumulate every output element over the same
  // ascending-k chain (multiplication commutes bit-for-bit), so the blocked
  // kernels must produce identical bits for both evaluation orders.
  common::Rng rng(9002);
  const tensor::Tensor a = tensor::Tensor::rand({19, 45}, rng, -1.0, 1.0);
  const tensor::Tensor b = tensor::Tensor::rand({45, 28}, rng, -1.0, 1.0);
  const tensor::Tensor lhs = tensor::transpose(tensor::matmul(a, b));
  const tensor::Tensor rhs =
      tensor::matmul(tensor::transpose(b), tensor::transpose(a));
  EXPECT_TRUE(same_bits(lhs, rhs));
}

TEST(GemmAlgebra, RowAndColumnBlockPartitionsAreExact) {
  // Output rows (and columns) are computed independently, so slicing the
  // inputs into blocks and multiplying blockwise reproduces the one-shot
  // product exactly — this is the property the row-panel parallel split and
  // the NC column blocking rely on.
  common::Rng rng(9003);
  const index_t m = 30, k = 41, n = 26, msplit = 13, nsplit = 11;
  const tensor::Tensor a = tensor::Tensor::rand({m, k}, rng, -1.0, 1.0);
  const tensor::Tensor b = tensor::Tensor::rand({k, n}, rng, -1.0, 1.0);
  const tensor::Tensor full = tensor::matmul(a, b);

  // Row partition of A.
  tensor::Tensor a_top({msplit, k}), a_bot({m - msplit, k});
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < k; ++j) {
      if (i < msplit) {
        a_top.at2(i, j) = a.at2(i, j);
      } else {
        a_bot.at2(i - msplit, j) = a.at2(i, j);
      }
    }
  }
  const tensor::Tensor top = tensor::matmul(a_top, b);
  const tensor::Tensor bot = tensor::matmul(a_bot, b);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      const real expect = i < msplit ? top.at2(i, j) : bot.at2(i - msplit, j);
      EXPECT_EQ(full.at2(i, j), expect) << "row block at " << i << "," << j;
    }
  }

  // Column partition of B.
  tensor::Tensor b_left({k, nsplit}), b_right({k, n - nsplit});
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) {
      if (j < nsplit) {
        b_left.at2(i, j) = b.at2(i, j);
      } else {
        b_right.at2(i, j - nsplit) = b.at2(i, j);
      }
    }
  }
  const tensor::Tensor left = tensor::matmul(a, b_left);
  const tensor::Tensor right = tensor::matmul(a, b_right);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      const real expect =
          j < nsplit ? left.at2(i, j) : right.at2(i, j - nsplit);
      EXPECT_EQ(full.at2(i, j), expect) << "col block at " << i << "," << j;
    }
  }
}

TEST(GemmAlgebra, KPartitionDistributesOverAddition) {
  // A·B == A1·B1 + A2·B2 when k is split. Regrouping the accumulation is
  // NOT bit-exact (that is precisely why the KC loop stays serial inside the
  // kernel), so this one gets a tolerance.
  common::Rng rng(9004);
  const index_t m = 22, k = 50, n = 18, ksplit = 23;
  const tensor::Tensor a = tensor::Tensor::rand({m, k}, rng, -1.0, 1.0);
  const tensor::Tensor b = tensor::Tensor::rand({k, n}, rng, -1.0, 1.0);
  tensor::Tensor a1({m, ksplit}), a2({m, k - ksplit});
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < k; ++j) {
      if (j < ksplit) {
        a1.at2(i, j) = a.at2(i, j);
      } else {
        a2.at2(i, j - ksplit) = a.at2(i, j);
      }
    }
  }
  tensor::Tensor b1({ksplit, n}), b2({k - ksplit, n});
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) {
      if (i < ksplit) {
        b1.at2(i, j) = b.at2(i, j);
      } else {
        b2.at2(i - ksplit, j) = b.at2(i, j);
      }
    }
  }
  const tensor::Tensor whole = tensor::matmul(a, b);
  const tensor::Tensor split = tensor::matmul(a1, b1) + tensor::matmul(a2, b2);
  EXPECT_TRUE(tensor::allclose(whole, split, 1e-12, 1e-12));
}

// ---- Sharded round engine properties ----------------------------------------

/// Final model bytes of a small sharded federation — the partition-invariance
/// probe. Everything except the shard size is pinned, so any byte difference
/// between two calls is the partition leaking into the protocol.
tensor::ByteBuffer sharded_model_bytes(index_t shard_size,
                                       std::uint64_t pop_seed) {
  runtime::set_num_threads(1);
  fl::VirtualPopulationConfig pop;
  pop.num_clients = 18;
  pop.seed = pop_seed;
  pop.num_classes = 3;
  pop.height = pop.width = 6;
  pop.examples_per_client = 4;
  pop.batch_size = 2;
  pop.factory = [] {
    common::Rng init(0xF00D);
    return nn::make_linear_model({3, 6, 6}, 3, init);
  };
  fl::ShardedConfig cfg;
  cfg.cohort_size = 8;
  cfg.shard_size = shard_size;
  cfg.seed = 5;
  auto server = std::make_unique<fl::Server>(pop.factory(), 0.1);
  fl::ShardedSimulation engine(std::move(server), fl::VirtualPopulation(pop),
                               cfg);
  engine.run(2);
  return nn::serialize_state(engine.server().global_model());
}

class ShardSizeSweep : public ::testing::TestWithParam<index_t> {};

TEST_P(ShardSizeSweep, PartitionDoesNotChangeTheRound) {
  // The shard size is an execution detail: the fold order is the cohort
  // order regardless of where the shard boundaries fall, so the final model
  // must be BYTE-identical at every partition — including shard_size 1
  // (every client its own shard) and 64 (the whole cohort in one shard).
  const tensor::ByteBuffer base = sharded_model_bytes(8, 0xA11CE);
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(sharded_model_bytes(GetParam(), 0xA11CE), base);
}

INSTANTIATE_TEST_SUITE_P(Partitions, ShardSizeSweep,
                         ::testing::Values(1, 2, 3, 5, 13, 64));

TEST(CohortSampling, MembershipIsPureAndTicketKeyed) {
  // Hash-threshold cohort membership is a pure function of
  // (seed, ticket, id): re-evaluating reproduces the cohort exactly, while
  // a fresh ticket or a different seed draws a fresh cohort.
  constexpr index_t kN = 997;
  constexpr index_t kM = 313;
  const std::uint64_t threshold = fl::cohort_threshold(kM, kN);
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    std::vector<std::uint64_t> t0, t0_again, t1, other_seed;
    for (std::uint64_t id = 0; id < kN; ++id) {
      if (fl::cohort_member(seed, 0, id, threshold)) t0.push_back(id);
      if (fl::cohort_member(seed, 0, id, threshold)) t0_again.push_back(id);
      if (fl::cohort_member(seed, 1, id, threshold)) t1.push_back(id);
      if (fl::cohort_member(seed ^ 0x5A5A, 0, id, threshold)) {
        other_seed.push_back(id);
      }
    }
    EXPECT_EQ(t0, t0_again) << "seed " << seed;
    EXPECT_NE(t0, t1) << "seed " << seed << ": ticket not keyed in";
    EXPECT_NE(t0, other_seed) << "seed " << seed << ": seed not keyed in";
    // Binomial(kN, kM/kN) concentrates near kM; a sampler that ignores the
    // threshold would land near 0, kN/2, or kN.
    EXPECT_GT(t0.size(), kM / 2) << "seed " << seed;
    EXPECT_LT(t0.size(), 2 * kM) << "seed " << seed;
  }
}

TEST(CohortSampling, GrowingTheTargetOnlyAddsMembers) {
  // Thresholds are monotone in the target and membership is mix < threshold,
  // so cohorts are NESTED as the participation target grows — raising M
  // never evicts a client that was already in.
  constexpr index_t kN = 499;
  for (const std::uint64_t seed : {3ULL, 9ULL, 27ULL}) {
    std::uint64_t prev_threshold = 0;
    std::vector<std::uint64_t> prev_members;
    for (const index_t target : {index_t{50}, index_t{125}, index_t{250},
                                 index_t{499}}) {
      const std::uint64_t threshold = fl::cohort_threshold(target, kN);
      EXPECT_GE(threshold, prev_threshold);
      std::vector<std::uint64_t> members;
      for (std::uint64_t id = 0; id < kN; ++id) {
        if (fl::cohort_member(seed, 2, id, threshold)) members.push_back(id);
      }
      EXPECT_TRUE(std::includes(members.begin(), members.end(),
                                prev_members.begin(), prev_members.end()))
          << "seed " << seed << " target " << target;
      prev_threshold = threshold;
      prev_members = std::move(members);
    }
    // target == population is the everyone-joins sentinel.
    EXPECT_EQ(prev_members.size(), kN);
  }
}

TEST(ShardedFedAvg, StreamingAccumulatorMatchesBatchFedavgExactly) {
  // The accumulator folds one update at a time; the batch form of Eq. 1
  // scales the first update, adds the rest with their weights, then divides
  // by the total. Same update sequence → same fold order → byte-identical
  // averages. This is the reducer half of the differential shard tests,
  // isolated from the round machinery.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto updates = random_updates(seed ^ 0x51A2D, 7, 6);
    fl::FedAvgAccumulator acc;
    for (const auto& u : updates) acc.add(u);
    const auto streamed = acc.average();

    std::vector<tensor::Tensor> batched;
    real total = 0.0;
    for (const auto& u : updates) {
      const auto w = static_cast<real>(u.num_examples);
      auto grads = tensor::deserialize_tensors(u.gradients);
      if (batched.empty()) {
        batched = std::move(grads);
        for (auto& t : batched) t *= w;
      } else {
        for (std::size_t t = 0; t < grads.size(); ++t) {
          batched[t].add_scaled_(grads[t], w);
        }
      }
      total += w;
    }
    for (auto& t : batched) t /= total;
    ASSERT_EQ(streamed.size(), batched.size());
    for (std::size_t t = 0; t < batched.size(); ++t) {
      EXPECT_TRUE(streamed[t] == batched[t]) << "seed " << seed;
    }
  }
}

TEST(ShardedFedAvg, HomogeneousUnderPowerOfTwoWeightScaling) {
  // Scaling every weight by 2^k shifts exponents without touching mantissas,
  // so the weighted average is not just close — it is BIT-identical. (The
  // general-factor version, with rounding slack, is
  // FedAvgAlgebra.AverageIsHomogeneousInExampleWeights.)
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto updates = random_updates(seed ^ 0x0EED, 5, 8);
    auto scaled = updates;
    for (auto& u : scaled) u.num_examples *= 8;
    fl::FedAvgAccumulator base_acc;
    fl::FedAvgAccumulator scaled_acc;
    for (const auto& u : updates) base_acc.add(u);
    for (const auto& u : scaled) scaled_acc.add(u);
    const auto base = base_acc.average();
    const auto rescaled = scaled_acc.average();
    for (std::size_t t = 0; t < base.size(); ++t) {
      EXPECT_TRUE(base[t] == rescaled[t]) << "seed " << seed;
    }
  }
}

TEST(ShardedFedAvg, PermutationWithinAShardPerturbsOnlyLastBits) {
  // Reordering clients WITHIN a shard permutes the float fold order — the
  // mathematical mean is unchanged, so results agree to strict tolerance
  // (that they need not agree in bytes is exactly why the engine pins the
  // fold order to the cohort order).
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto updates = random_updates(seed ^ 0xD00F, 6, 9);
    auto reversed = updates;
    std::reverse(reversed.begin(), reversed.end());
    auto rotated = updates;
    std::rotate(rotated.begin(), rotated.begin() + 2, rotated.end());
    fl::FedAvgAccumulator base_acc;
    for (const auto& u : updates) base_acc.add(u);
    const auto base = base_acc.average();
    for (const auto& permuted : {reversed, rotated}) {
      fl::FedAvgAccumulator acc;
      for (const auto& u : permuted) acc.add(u);
      const auto avg = acc.average();
      for (std::size_t t = 0; t < base.size(); ++t) {
        EXPECT_TRUE(tensor::allclose(avg[t], base[t], 1e-12, 1e-12))
            << "seed " << seed << " tensor " << t;
      }
    }
  }
}

TEST(RtfCalibration, QuantileCutoffsRefineMonotonically) {
  // The empirical CDF is monotone: raising the level never lowers the
  // cutoff. Checked across the quantile levels the attack actually uses.
  common::Rng rng(321);
  std::vector<real> sample;
  for (int i = 0; i < 200; ++i) sample.push_back(rng.normal());
  for (real lo = 0.05; lo < 0.9; lo += 0.05) {
    EXPECT_LE(attack::empirical_quantile(sample, lo),
              attack::empirical_quantile(sample, lo + 0.05) + 1e-15);
  }
}

// ---- Byzantine-robust aggregation -------------------------------------------

/// n random tensor-list updates (two tensors each), seeded.
std::vector<std::vector<tensor::Tensor>> random_gradient_sets(
    std::uint64_t seed, std::size_t n) {
  common::Rng rng(seed);
  std::vector<std::vector<tensor::Tensor>> sets;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<tensor::Tensor> g;
    g.push_back(tensor::Tensor::randn({4, 3}, rng));
    g.push_back(tensor::Tensor::randn({5}, rng));
    sets.push_back(std::move(g));
  }
  return sets;
}

bool bit_identical(const std::vector<tensor::Tensor>& a,
                   const std::vector<tensor::Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (a[t].size() != b[t].size()) return false;
    if (std::memcmp(a[t].data().data(), b[t].data().data(),
                    sizeof(real) * a[t].size()) != 0) {
      return false;
    }
  }
  return true;
}

TEST(RobustAggregation, OrderStatisticsArePermutationInvariantBitForBit) {
  // Median/trimmed mean sort per coordinate, so arrival order must not
  // even perturb the last float bit — stronger than FedAvg's allclose-only
  // permutation invariance above.
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const auto base = random_gradient_sets(seed, 7);
    auto reversed = base;
    std::reverse(reversed.begin(), reversed.end());
    auto rotated = base;
    std::rotate(rotated.begin(), rotated.begin() + 3, rotated.end());
    for (const auto& permuted : {reversed, rotated}) {
      EXPECT_TRUE(bit_identical(fl::coordinate_median(base),
                                fl::coordinate_median(permuted)))
          << "seed " << seed;
      EXPECT_TRUE(bit_identical(fl::trimmed_mean(base, 0.2),
                                fl::trimmed_mean(permuted, 0.2)))
          << "seed " << seed;
    }
  }
}

TEST(RobustAggregation, BreakdownPointCapsOutlierInfluence) {
  // Up to floor(trim_fraction·n) arbitrary updates per tail (and any
  // f < n/2 for the median) cannot push the result outside the honest
  // values' per-coordinate range — the breakdown-point guarantee the
  // Byzantine chaos suite exercises end to end.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto honest = random_gradient_sets(seed ^ 0xB12, 8);
    auto attacked = honest;
    // floor(0.25·10) = 2 attackers, each injecting ±1e9 per coordinate.
    common::Rng rng(seed);
    for (int a = 0; a < 2; ++a) {
      std::vector<tensor::Tensor> evil;
      for (const auto& t : honest[0]) {
        tensor::Tensor e(t.shape());
        for (index_t i = 0; i < e.size(); ++i) {
          e[i] = (rng.uniform() < 0.5 ? -1e9 : 1e9);
        }
        evil.push_back(std::move(e));
      }
      attacked.push_back(std::move(evil));
    }
    const auto med = fl::coordinate_median(attacked);
    const auto trim = fl::trimmed_mean(attacked, 0.25);
    for (std::size_t t = 0; t < honest[0].size(); ++t) {
      for (index_t i = 0; i < honest[0][t].size(); ++i) {
        real lo = honest[0][t][i], hi = honest[0][t][i];
        for (const auto& h : honest) {
          lo = std::min(lo, h[t][i]);
          hi = std::max(hi, h[t][i]);
        }
        EXPECT_GE(med[t][i], lo - 1e-12) << "seed " << seed;
        EXPECT_LE(med[t][i], hi + 1e-12) << "seed " << seed;
        EXPECT_GE(trim[t][i], lo - 1e-12) << "seed " << seed;
        EXPECT_LE(trim[t][i], hi + 1e-12) << "seed " << seed;
      }
    }
  }
}

TEST(RobustAggregation, AgreesWithFedAvgOnHomogeneousCohorts) {
  // When every client uploads the SAME gradients, robustness costs
  // nothing: median, trimmed mean, and the unweighted mean all return
  // exactly that update.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto one = random_gradient_sets(seed ^ 0x40, 1)[0];
    std::vector<std::vector<tensor::Tensor>> sets(5, one);
    std::vector<fl::ClientUpdateMessage> updates(5);
    for (std::size_t i = 0; i < 5; ++i) {
      updates[i].client_id = i;
      updates[i].num_examples = 2;
      updates[i].gradients = tensor::serialize_tensors(one);
    }
    const auto avg = unweighted_mean(updates);
    const auto med = fl::coordinate_median(sets);
    const auto trim = fl::trimmed_mean(sets, 0.2);
    for (std::size_t t = 0; t < one.size(); ++t) {
      EXPECT_TRUE(tensor::allclose(med[t], one[t], 1e-15, 1e-15));
      EXPECT_TRUE(tensor::allclose(trim[t], one[t], 1e-12, 1e-12));
      EXPECT_TRUE(tensor::allclose(avg[t], med[t], 1e-12, 1e-12));
    }
  }
}

TEST(RobustAggregation, ZeroTrimIsTheUnweightedMeanAndBoundsAreEnforced) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto sets = random_gradient_sets(seed ^ 0x99, 6);
    std::vector<fl::ClientUpdateMessage> updates(sets.size());
    for (std::size_t i = 0; i < sets.size(); ++i) {
      updates[i].client_id = i;
      updates[i].num_examples = 3;
      updates[i].gradients = tensor::serialize_tensors(sets[i]);
    }
    const auto mean = unweighted_mean(updates);
    const auto trim0 = fl::trimmed_mean(sets, 0.0);
    for (std::size_t t = 0; t < mean.size(); ++t) {
      EXPECT_TRUE(tensor::allclose(trim0[t], mean[t], 1e-12, 1e-12));
    }
  }
  const auto sets = random_gradient_sets(1, 4);
  EXPECT_THROW(fl::trimmed_mean(sets, 0.5), ConfigError);
  EXPECT_THROW(fl::trimmed_mean(sets, -0.1), ConfigError);
  EXPECT_THROW(fl::coordinate_median({}), AggregationError);
}

}  // namespace
}  // namespace oasis

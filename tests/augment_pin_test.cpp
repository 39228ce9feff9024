// Cross-commit byte pin for the augmentation engine.
//
// The golden fixture replays an FL round without augmentation and the
// augment unit tests check properties (invertibility, mean preservation)
// with tolerances, so neither notices an edit to the sinc shear that moves
// the bytes a defended client trains on. This pins the CRC32C of
//   * AugmentationPolicy::augment() outputs for MR+SH, SH and mR on
//     fixed-seed batches (the `Policy` tests), and
//   * raw shear()/rotate() outputs (the `Raw` tests),
// at an even width (24: the Dirichlet kernel's tan branch) and an odd one
// (17: its sin branch). The raw cases include μ = 0 and μ = 2 at h = 24,
// where every row shift is an integer and the exact rotation path runs.
//
// The raw-warp half feeds the warps U[0, 1) images, whose bytes do not
// depend on floating-point contraction, so ci.sh's portable stage replays
// it (`--gtest_filter='AugmentPin.Raw*'`) in a build without -march=native
// against the same constants. The policy half draws its angles and shear
// factors through Rng::uniform(lo, hi), whose lo + (hi − lo)·u contracts
// under -march=native, so it holds only in the native build.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "augment/affine.h"
#include "augment/policy.h"
#include "common/crc32c.h"
#include "common/rng.h"

namespace oasis::augment {
namespace {

struct PinnedCrc {
  const char* what;
  std::uint32_t crc;
};

std::uint32_t tensor_crc(const tensor::Tensor& t) {
  return common::crc32c(t.data().data(), t.size() * sizeof(real));
}

void expect_pins(const std::vector<std::uint32_t>& got,
                 const std::vector<PinnedCrc>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    char hex[16];
    std::snprintf(hex, sizeof(hex), "0x%08Xu", got[i]);
    EXPECT_EQ(got[i], want[i].crc) << want[i].what << " crc " << hex;
  }
}

// A fixed-seed batch of four 3×n×n U[0, 1) images with labels 0..3.
data::Batch pin_batch(index_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  return {tensor::Tensor::rand({4, 3, n, n}, rng), {0, 1, 2, 3}};
}

tensor::Tensor pin_image(index_t h, index_t w, std::uint64_t seed) {
  common::Rng rng(seed);
  return tensor::Tensor::rand({3, h, w}, rng);
}

std::vector<std::uint32_t> policy_crcs(const std::vector<TransformKind>& kinds,
                                       std::uint64_t seed) {
  const AugmentationPolicy policy = make_policy(kinds);
  std::vector<std::uint32_t> crcs;
  for (const index_t n : {index_t{24}, index_t{17}}) {
    common::Rng rng(seed);
    const data::Batch out = policy.augment(pin_batch(n, seed + n), rng);
    crcs.push_back(tensor_crc(out.images));
  }
  return crcs;
}

TEST(AugmentPin, PolicyMajorRotationPlusShear) {
  expect_pins(policy_crcs({TransformKind::kMajorRotation, TransformKind::kShear},
                          0xA11u),
              {{"MR+SH w24", 0xB89D7C9Au}, {"MR+SH w17", 0xBDA78234u}});
}

TEST(AugmentPin, PolicyShear) {
  expect_pins(policy_crcs({TransformKind::kShear}, 0xA12u),
              {{"SH w24", 0x4D8E197Bu}, {"SH w17", 0xC0498177u}});
}

TEST(AugmentPin, PolicyMinorRotation) {
  expect_pins(policy_crcs({TransformKind::kMinorRotation}, 0xA13u),
              {{"mR w24", 0x7EB357F1u}, {"mR w17", 0x2B23D5B3u}});
}

TEST(AugmentPin, RawShear) {
  const tensor::Tensor w24 = pin_image(24, 24, 0xB24u);
  const tensor::Tensor w17 = pin_image(17, 17, 0xB17u);
  const tensor::Tensor wide = pin_image(12, 20, 0xB20u);
  expect_pins({tensor_crc(shear(w24, 0.3)), tensor_crc(shear(w24, -0.45)),
               tensor_crc(shear(w17, 0.3)), tensor_crc(shear(w17, -0.45)),
               tensor_crc(shear(wide, 0.17)), tensor_crc(shear(w24, 0.0)),
               tensor_crc(shear(w24, 2.0))},
              {{"shear w24 0.3", 0x57D054D7u},
               {"shear w24 -0.45", 0x20443E64u},
               {"shear w17 0.3", 0xBD3B5BCAu},
               {"shear w17 -0.45", 0x503BAEF3u},
               {"shear 12x20 0.17", 0x3D81C7ABu},
               {"shear w24 0 (identity)", 0xBC204B37u},
               {"shear w24 2 (integer shifts)", 0x2B96D587u}});
}

TEST(AugmentPin, RawRotate) {
  const tensor::Tensor w24 = pin_image(24, 24, 0xC24u);
  const tensor::Tensor w17 = pin_image(17, 17, 0xC17u);
  const tensor::Tensor wide = pin_image(12, 20, 0xC20u);
  expect_pins({tensor_crc(rotate(w24, 0.3)), tensor_crc(rotate(w24, -2.5)),
               tensor_crc(rotate(w17, 0.3)), tensor_crc(rotate(w17, 2.2)),
               tensor_crc(rotate(wide, 0.4))},
              {{"rotate w24 0.3", 0x884665F4u},
               {"rotate w24 -2.5", 0xD0013533u},
               {"rotate w17 0.3", 0x32F3D2FDu},
               {"rotate w17 2.2", 0xA5C76E43u},
               {"rotate 12x20 0.4", 0x374B4AD5u}});
}

}  // namespace
}  // namespace oasis::augment

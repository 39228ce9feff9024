#include "nn/init.h"

#include <cmath>

namespace oasis::nn::init {

tensor::Tensor kaiming_uniform(tensor::Shape shape, index_t fan_in,
                               common::Rng& rng) {
  OASIS_CHECK(fan_in > 0);
  const real bound = std::sqrt(6.0 / static_cast<real>(fan_in));
  return tensor::Tensor::rand(std::move(shape), rng, -bound, bound);
}

}  // namespace oasis::nn::init

// Weight initialization schemes.
#pragma once

#include "common/rng.h"
#include "tensor/tensor.h"

namespace oasis::nn::init {

/// Kaiming (He) uniform: U[-√(6/fan_in), +√(6/fan_in)] — default for layers
/// followed by ReLU.
tensor::Tensor kaiming_uniform(tensor::Shape shape, index_t fan_in,
                               common::Rng& rng);

}  // namespace oasis::nn::init

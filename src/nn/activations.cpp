#include "nn/activations.h"

#include "tensor/ops.h"

namespace oasis::nn {

tensor::Tensor ReLU::forward(const tensor::Tensor& x, bool /*training*/) {
  cached_pre_ = x;
  return tensor::relu(x);
}

tensor::Tensor ReLU::backward(const tensor::Tensor& grad_out) {
  return tensor::relu_backward(grad_out, cached_pre_);
}

}  // namespace oasis::nn

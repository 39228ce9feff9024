#include "nn/activations.h"

namespace oasis::nn {

tensor::Tensor ReLU::forward(const tensor::Tensor& x, bool training) {
  return forward(tensor::Tensor(x), training);
}

tensor::Tensor ReLU::forward(tensor::Tensor&& x, bool /*training*/) {
  tensor::relu_(x, mask_);
  return std::move(x);
}

tensor::Tensor ReLU::backward(const tensor::Tensor& grad_out) {
  return backward(tensor::Tensor(grad_out));
}

tensor::Tensor ReLU::backward(tensor::Tensor&& grad_out) {
  tensor::relu_backward_(grad_out, mask_);
  return std::move(grad_out);
}

}  // namespace oasis::nn

#include "nn/residual.h"

#include <utility>

#include "tensor/ops.h"

namespace oasis::nn {

ResidualBlock::ResidualBlock(index_t in_channels, index_t out_channels,
                             index_t stride, common::Rng& rng)
    : conv1_(std::make_unique<Conv2d>(in_channels, out_channels, 3, stride, 1,
                                      rng)),
      bn1_(std::make_unique<BatchNorm2d>(out_channels)),
      conv2_(std::make_unique<Conv2d>(out_channels, out_channels, 3, 1, 1,
                                      rng)),
      bn2_(std::make_unique<BatchNorm2d>(out_channels)) {
  if (stride != 1 || in_channels != out_channels) {
    projection_ =
        std::make_unique<Conv2d>(in_channels, out_channels, 1, stride, 0, rng);
  }
}

tensor::Tensor ResidualBlock::forward(const tensor::Tensor& x, bool training) {
  tensor::Tensor h = bn1_->forward(conv1_->forward(x, training), training);
  tensor::relu_(h, mid_mask_);
  h = bn2_->forward(conv2_->forward(std::move(h), training), training);
  if (projection_) {
    h += projection_->forward(x, training);
  } else {
    h += x;
  }
  tensor::relu_(h, sum_mask_);
  return h;
}

tensor::Tensor ResidualBlock::backward(const tensor::Tensor& grad_out) {
  // Through the final ReLU.
  tensor::Tensor g = grad_out;
  tensor::relu_backward_(g, sum_mask_);
  // Shortcut branch.
  tensor::Tensor g_shortcut = projection_ ? projection_->backward(g) : g;
  // Main branch.
  tensor::Tensor g_main = conv2_->backward(bn2_->backward(g));
  tensor::relu_backward_(g_main, mid_mask_);
  g_main = conv1_->backward(bn1_->backward(g_main));
  g_main += g_shortcut;
  return g_main;
}

std::vector<Parameter*> ResidualBlock::parameters() {
  std::vector<Parameter*> params;
  for (auto* m : std::initializer_list<Module*>{conv1_.get(), bn1_.get(),
                                                conv2_.get(), bn2_.get()}) {
    for (auto* p : m->parameters()) params.push_back(p);
  }
  if (projection_) {
    for (auto* p : projection_->parameters()) params.push_back(p);
  }
  return params;
}

std::vector<tensor::Tensor*> ResidualBlock::buffers() {
  std::vector<tensor::Tensor*> bufs;
  for (auto* b : bn1_->buffers()) bufs.push_back(b);
  for (auto* b : bn2_->buffers()) bufs.push_back(b);
  return bufs;
}

}  // namespace oasis::nn

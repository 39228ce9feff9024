// Residual block (the building unit of MiniResNet, our ResNet-18 stand-in).
#pragma once

#include <memory>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace oasis::nn {

/// y = ReLU( BN(conv2(ReLU(BN(conv1(x))))) + shortcut(x) )
///
/// The shortcut is identity when shapes match, otherwise a stride-matched
/// 1×1 convolution (the classic ResNet "option B" projection).
class ResidualBlock : public Module {
 public:
  ResidualBlock(index_t in_channels, index_t out_channels, index_t stride,
                common::Rng& rng);

  using Module::forward;
  using Module::backward;
  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::vector<tensor::Tensor*> buffers() override;
  [[nodiscard]] std::string name() const override { return "ResidualBlock"; }

 private:
  std::unique_ptr<Conv2d> conv1_;
  std::unique_ptr<BatchNorm2d> bn1_;
  std::unique_ptr<Conv2d> conv2_;
  std::unique_ptr<BatchNorm2d> bn2_;
  std::unique_ptr<Conv2d> projection_;  // nullptr for identity shortcut
  // Keep-masks of the two ReLUs, for backward.
  tensor::ReluMask mid_mask_;  // after bn1
  tensor::ReluMask sum_mask_;  // after the shortcut sum
};

}  // namespace oasis::nn

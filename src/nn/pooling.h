// Spatial pooling layers and Flatten.
#pragma once

#include <vector>

#include "nn/module.h"

namespace oasis::nn {

/// Max pooling over [B, C, H, W]; caches argmax positions for backward.
class MaxPool2d : public Module {
 public:
  MaxPool2d(index_t kernel, index_t stride);

  using Module::forward;
  using Module::backward;
  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "MaxPool2d"; }

 private:
  index_t k_, stride_;
  tensor::Shape in_shape_;
  std::vector<index_t> argmax_;  // flat input index per output element
};

/// Global average pooling: [B, C, H, W] → [B, C].
class GlobalAvgPool : public Module {
 public:
  using Module::forward;
  using Module::backward;
  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "GlobalAvgPool"; }

 private:
  tensor::Shape in_shape_;
};

/// Flattens [B, ...] → [B, prod(...)]; reshapes an rvalue in place.
class Flatten : public Module {
 public:
  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor forward(tensor::Tensor&& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  tensor::Tensor backward(tensor::Tensor&& grad_out) override;
  [[nodiscard]] std::string name() const override { return "Flatten"; }

 private:
  tensor::Shape in_shape_;
};

}  // namespace oasis::nn

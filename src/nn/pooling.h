// Spatial pooling layers and Flatten.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/module.h"

namespace oasis::nn {

/// Max pooling over [B, C, H, W]. Each output keeps one byte: the offset,
/// in window scan order, of the element its gradient routes to.
///
/// Besides the standalone layer it runs a ReLU→MaxPool pair as one pass
/// (forward_relu/backward_relu), which Sequential uses when a ReLU feeds a
/// pool whose windows tile the input (DESIGN.md §5m). The pair's bytes are
/// those of ReLU::forward then forward, and of backward then
/// ReLU::backward, on every input.
class MaxPool2d : public Module {
 public:
  /// Window extent `kernel` (at most 15, so an offset fits the code byte)
  /// and `stride`.
  MaxPool2d(index_t kernel, index_t stride);

  using Module::forward;
  using Module::backward;
  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "MaxPool2d"; }

  /// True when windows never overlap or skip (kernel == stride), so a
  /// ReLU in front of this pool can run fused with it.
  [[nodiscard]] bool fuses_relu() const { return k_ == stride_; }
  /// True when the windows tile `x` exactly: fuses_relu() and both spatial
  /// extents a multiple of the kernel. forward_relu's precondition.
  [[nodiscard]] bool tiles(const tensor::Tensor& x) const;
  /// ReLU then this pool over `x` in one pass. The pass routes each window
  /// as the pair would and reads no ReLU output. A training forward keeps
  /// x's storage, which backward_relu fills with the input gradient.
  tensor::Tensor forward_relu(tensor::Tensor&& x, bool training);
  /// The pair's backward: the gradient w.r.t. the ReLU's input, written
  /// window by window with no zero fill or scatter. Must follow
  /// forward_relu.
  tensor::Tensor backward_relu(const tensor::Tensor& grad_out);
  /// True when the last forward was forward_relu.
  [[nodiscard]] bool relu_fused() const { return relu_fused_; }

 private:
  index_t k_, stride_;
  tensor::Shape in_shape_;
  // Per output: the routed window offset, or 0xFF where the fused ReLU
  // dropped it.
  std::vector<std::uint8_t> code_;
  bool relu_fused_ = false;
  tensor::Tensor consumed_;  // forward_relu's input storage, training only
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

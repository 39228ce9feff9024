// 2-D convolution layer (per-sample lowering into packed GEMM panels).
#pragma once

#include "nn/module.h"
#include "tensor/tensor.h"

namespace oasis::nn {

/// Conv2d over [B, C, H, W] inputs with square kernels, zero padding.
///
/// Weight stored as a [out_channels, in_channels*k*k] matrix. Per sample the
/// forward pass is one packed GEMM, outᵀ = colsᵀ·Wᵀ, on panels lowered
/// straight from the input (DESIGN.md §5k).
class Conv2d : public Module {
 public:
  Conv2d(index_t in_channels, index_t out_channels, index_t kernel,
         index_t stride, index_t pad, common::Rng& rng);

  using Module::backward;
  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  /// Moves `x` into the input cache instead of copying it.
  tensor::Tensor forward(tensor::Tensor&& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  /// The weight and bias gradients alone: no input-gradient GEMM or col2im.
  void backward_params(const tensor::Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override { return "Conv2d"; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  void check_input(const tensor::Tensor& x) const;
  /// The forward pass over cached_x_.
  tensor::Tensor forward_cached();

  index_t in_ch_, out_ch_, k_, stride_, pad_;
  Parameter weight_;  // [out_ch, in_ch*k*k]
  Parameter bias_;    // [out_ch]
  // The last forward input, [batch, in_ch, h, w]. Backward re-lowers each
  // sample from it into per-thread workspace panels, so no batch-sized
  // column matrix outlives a call. The storage is reused across forward
  // calls of one size; the rvalue forward takes the caller's instead.
  tensor::Tensor cached_x_;
};

}  // namespace oasis::nn

// 2-D convolution layer (im2col + blocked-GEMM implementation).
#pragma once

#include "nn/module.h"
#include "tensor/tensor.h"

namespace oasis::nn {

/// Conv2d over [B, C, H, W] inputs with square kernels, zero padding.
///
/// Weight stored as a [out_channels, in_channels*k*k] matrix so the forward
/// pass per sample is a single matmul against the im2col buffer.
class Conv2d : public Module {
 public:
  Conv2d(index_t in_channels, index_t out_channels, index_t kernel,
         index_t stride, index_t pad, common::Rng& rng);

  using Module::forward;
  using Module::backward;
  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override { return "Conv2d"; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  index_t in_ch_, out_ch_, k_, stride_, pad_;
  Parameter weight_;  // [out_ch, in_ch*k*k]
  Parameter bias_;    // [out_ch]
  // Cached im2col columns for backward, [batch, in_ch*k*k, oh*ow]. The
  // storage persists across forward calls (re-allocated only when the input
  // geometry changes), so the im2col hot loop is allocation-free.
  tensor::Tensor cached_cols_;
  index_t cached_h_ = 0, cached_w_ = 0, cached_batch_ = 0;
};

}  // namespace oasis::nn

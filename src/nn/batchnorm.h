// Per-channel batch normalization for [B, C, H, W] tensors.
#pragma once

#include "nn/module.h"

namespace oasis::nn {

/// BatchNorm2d with learnable scale/shift and running statistics.
///
/// Training mode normalizes with batch statistics and updates running
/// estimates (exponential moving average); eval mode uses running stats.
class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(index_t channels, real momentum = 0.1,
                       real eps = 1e-5);

  using Module::forward;
  using Module::backward;
  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&gamma_, &beta_}; }
  std::vector<tensor::Tensor*> buffers() override {
    return {&running_mean_, &running_var_};
  }
  [[nodiscard]] std::string name() const override { return "BatchNorm2d"; }

  /// Running statistics (non-trainable state that FL snapshots must carry).
  tensor::Tensor& running_mean() { return running_mean_; }
  tensor::Tensor& running_var() { return running_var_; }

 private:
  index_t channels_;
  real momentum_, eps_;
  Parameter gamma_;  // [C] scale
  Parameter beta_;   // [C] shift
  tensor::Tensor running_mean_;  // [C]
  tensor::Tensor running_var_;   // [C]
  // Backward cache (training mode).
  tensor::Tensor cached_xhat_;   // normalized input
  tensor::Tensor cached_invstd_; // [C]
  tensor::Shape in_shape_;
  bool cached_training_ = false;
};

}  // namespace oasis::nn

// Fully-connected layer — the layer class the active attacks implant.
#pragma once

#include "nn/module.h"

namespace oasis::nn {

/// y = x · Wᵀ + b with W stored as [out_features, in_features].
///
/// The row-per-neuron weight layout matches the paper's notation
/// (W ∈ R^{n×d}): row i of `weight()` is the weight vector of neuron i, and
/// the reconstruction arithmetic (ΔW_i / Δb_i) indexes rows directly.
class Dense : public Module {
 public:
  /// Weights initialized with Kaiming-uniform; biases zero.
  Dense(index_t in_features, index_t out_features, common::Rng& rng);

  using Module::forward;
  using Module::backward;
  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  /// The weight and bias gradients alone: no input-gradient GEMM.
  void backward_params(const tensor::Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override { return "Dense"; }

  [[nodiscard]] index_t in_features() const { return in_; }
  [[nodiscard]] index_t out_features() const { return out_; }

  /// Direct parameter access — used by the dishonest server to implant
  /// malicious weights and by tests.
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  [[nodiscard]] const Parameter& weight() const { return weight_; }
  [[nodiscard]] const Parameter& bias() const { return bias_; }

 private:
  index_t in_;
  index_t out_;
  Parameter weight_;  // [out, in]
  Parameter bias_;    // [out]
  tensor::Tensor cached_input_;  // [B, in]
};

}  // namespace oasis::nn

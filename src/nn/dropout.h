// Dropout layer (inverted scaling).
#pragma once

#include <vector>

#include "nn/module.h"

namespace oasis::nn {

/// Zeroes each activation independently with probability p during training
/// and scales survivors by 1/(1-p) ("inverted dropout", so eval mode is the
/// identity). The mask is drawn from the layer's own RNG stream at every
/// training forward pass and cached for backward.
class Dropout : public Module {
 public:
  explicit Dropout(real p, common::Rng rng);

  using Module::forward;
  using Module::backward;
  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "Dropout"; }

  [[nodiscard]] real p() const { return p_; }

 private:
  real p_;
  common::Rng rng_;
  std::vector<real> mask_;  // 0 or 1/(1-p) per element of the last forward
  bool last_training_ = false;
};

}  // namespace oasis::nn

// Stateless activation layers.
#pragma once

#include "nn/module.h"

namespace oasis::nn {

/// Rectified linear unit. The attacks in this repo specifically target
/// FC+ReLU blocks: a neuron "activates" on x iff its pre-activation is
/// positive, which is the condition Proposition 1 of the paper reasons about.
class ReLU : public Module {
 public:
  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  tensor::Tensor cached_pre_;
};

}  // namespace oasis::nn

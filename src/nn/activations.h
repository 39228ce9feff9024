// Stateless activation layers.
#pragma once

#include "nn/module.h"
#include "tensor/ops.h"

namespace oasis::nn {

/// Rectified linear unit. The attacks in this repo specifically target
/// FC+ReLU blocks: a neuron "activates" on x iff its pre-activation is
/// positive, which is the condition Proposition 1 of the paper reasons about.
///
/// Works in place on an rvalue input and caches only the one-byte keep-mask
/// of tensor::relu_, not the input.
class ReLU : public Module {
 public:
  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor forward(tensor::Tensor&& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  tensor::Tensor backward(tensor::Tensor&& grad_out) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  tensor::ReluMask mask_;
};

}  // namespace oasis::nn

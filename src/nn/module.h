// Module: the layer abstraction of the OASIS NN library.
//
// Contract (classic layer-wise backprop):
//   1. forward(x, training) computes the output and caches whatever the
//      layer needs for its backward pass (inputs, masks, ...).
//   2. backward(grad_out) must follow the matching forward(); it accumulates
//      parameter gradients (+=) and returns the gradient w.r.t. the input.
//   3. Parameter gradients accumulate until zero_grad().
//   4. forward/backward also take rvalues. A callee may then reuse the
//      argument's storage for its result (ReLU and Flatten work in place);
//      the const& forms never mutate the caller's tensor. Layers that gain
//      nothing from owning their input keep the default rvalue forms, which
//      forward to the const& ones, and re-expose them with
//      `using Module::forward; using Module::backward;` so no overload is
//      hidden.
//   5. backward_params(grad_out) is backward() for a caller that reads only
//      the parameter gradients (a training step). It accumulates the same
//      parameter-gradient bytes and returns nothing, so a layer may skip
//      its input-gradient work (Conv2d, Dense) and a container may skip the
//      children in front of its first parameterized one (Sequential). The
//      default runs backward() and drops the result.
//
// Modules are deliberately stateful-per-pass rather than graph-based: the
// paper's attacks need nothing more than exact batch-summed gradients of a
// feed-forward network, and the explicit cache keeps the gradient arithmetic
// auditable (important when asserting bit-level reconstruction equalities).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/parameter.h"
#include "tensor/tensor.h"

namespace oasis::nn {

class Module {
 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  virtual ~Module() = default;

  /// Computes the layer output; caches activations needed by backward().
  /// `training` toggles train-time behaviour (e.g. batch-norm statistics).
  virtual tensor::Tensor forward(const tensor::Tensor& x, bool training) = 0;

  /// forward() on a tensor the callee may consume.
  virtual tensor::Tensor forward(tensor::Tensor&& x, bool training) {
    return forward(std::as_const(x), training);
  }

  /// Backpropagates: accumulates parameter grads, returns input grad.
  /// Must be called after the matching forward().
  virtual tensor::Tensor backward(const tensor::Tensor& grad_out) = 0;

  /// backward() on a gradient the callee may consume.
  virtual tensor::Tensor backward(tensor::Tensor&& grad_out) {
    return backward(std::as_const(grad_out));
  }

  /// backward() without the input gradient: accumulates the parameter
  /// gradients only. Must be called after the matching forward().
  virtual void backward_params(const tensor::Tensor& grad_out) {
    backward(grad_out);
  }

  /// Trainable parameters (empty for stateless layers). Pointers remain
  /// valid for the lifetime of the module.
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Non-trainable state tensors that must travel with model snapshots
  /// (e.g. batch-norm running statistics). Empty for most layers.
  virtual std::vector<tensor::Tensor*> buffers() { return {}; }

  /// Human-readable layer name for diagnostics.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Zeroes every parameter gradient.
  void zero_grad() {
    for (auto* p : parameters()) p->zero_grad();
  }
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace oasis::nn

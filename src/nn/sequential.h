// Sequential container of modules.
#pragma once

#include <memory>
#include <vector>

#include "nn/module.h"

namespace oasis::nn {

class MaxPool2d;

/// Runs child modules in order; backward in reverse order.
///
/// Exposes structural surgery (`insert`) because the dishonest server in the
/// threat model splices a malicious FC+ReLU block in front of the model it
/// dispatches to clients.
///
/// A ReLU that has a child in front of it and feeds a MaxPool2d with
/// kernel == stride runs with that pool as one pass (MaxPool2d::forward_relu)
/// whenever the pool's windows tile the activation; the bytes are the
/// unfused pair's (DESIGN.md §5m).
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a module; returns a reference to the added module (typed).
  template <typename M, typename... Args>
  M& emplace(Args&&... args) {
    auto m = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *m;
    append(std::move(m));
    return ref;
  }

  /// Appends an already-constructed module.
  void append(ModulePtr m);

  /// Inserts a module before position `index` (0 = front).
  void insert(index_t index, ModulePtr m);

  [[nodiscard]] index_t size() const { return modules_.size(); }
  Module& at(index_t index);
  [[nodiscard]] const Module& at(index_t index) const;

  /// Activations and gradients move from child to child, so in-place
  /// children reuse one buffer. The caller's tensor reaches the first child
  /// (last, for backward) as an lvalue, uncopied.
  using Module::forward;
  using Module::backward;
  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  /// Full backward() down to the first child with parameters, whose
  /// backward_params() ends the pass: no child in front of it runs.
  void backward_params(const tensor::Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::vector<tensor::Tensor*> buffers() override;
  [[nodiscard]] std::string name() const override { return "Sequential"; }

 private:
  /// Recomputes fused_ after the children change.
  void relink();
  /// Child i forward, or the fused pair starting at i (then i moves to the
  /// pool).
  tensor::Tensor forward_child(index_t& i, tensor::Tensor&& h, bool training);
  /// Child i backward, or the fused pair ending at i (then i moves to the
  /// ReLU).
  template <typename G>
  tensor::Tensor backward_child(index_t& i, G&& g);

  std::vector<ModulePtr> modules_;
  // fused_[i]: the pool modules_[i] fuses with, or null.
  std::vector<MaxPool2d*> fused_;
};

}  // namespace oasis::nn

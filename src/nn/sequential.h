// Sequential container of modules.
#pragma once

#include <memory>
#include <vector>

#include "nn/module.h"

namespace oasis::nn {

/// Runs child modules in order; backward in reverse order.
///
/// Exposes structural surgery (`insert`) because the dishonest server in the
/// threat model splices a malicious FC+ReLU block in front of the model it
/// dispatches to clients.
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a module; returns a reference to the added module (typed).
  template <typename M, typename... Args>
  M& emplace(Args&&... args) {
    auto m = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *m;
    modules_.push_back(std::move(m));
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
  std::vector<ModulePtr> modules_;
};

}  // namespace oasis::nn

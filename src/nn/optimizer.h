// First-order optimizers over a set of Parameters.
#pragma once

#include <vector>

#include "nn/parameter.h"

namespace oasis::nn {

/// Base optimizer: owns no parameters, only references them.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Parameter*> params)
      : params_(std::move(params)) {}
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;
  virtual ~Optimizer() = default;

  /// Applies one update from the accumulated gradients.
  virtual void step() = 0;

  /// Clears all parameter gradients.
  void zero_grad() {
    for (auto* p : params_) p->zero_grad();
  }

  /// Serializable optimizer state (momentum/moment slots, step counters) as
  /// a tensor list in a fixed per-optimizer order. Round-tripping through
  /// load_state_tensors resumes the optimizer bit-exactly — the trainer's
  /// checkpoint path relies on this.
  [[nodiscard]] virtual std::vector<tensor::Tensor> state_tensors() const = 0;

  /// Inverse of state_tensors. Throws Error on count/shape mismatch (a
  /// snapshot from a differently configured optimizer).
  virtual void load_state_tensors(const std::vector<tensor::Tensor>& state) = 0;

 protected:
  std::vector<Parameter*> params_;
};

/// Adam (Kingma & Ba) with L2 weight decay, as the paper's Table 1 setup
/// (Adam, lr 1e-3, weight decay 1e-5 / 1e-3).
class Adam : public Optimizer {
 public:
  struct Options {
    real lr = 1e-3;
    real beta1 = 0.9;
    real beta2 = 0.999;
    real eps = 1e-8;
    real weight_decay = 0.0;
  };

  Adam(std::vector<Parameter*> params, Options opts);
  void step() override;

  /// m slots, then v slots (parameter order), then the step count t as a
  /// one-element tensor.
  [[nodiscard]] std::vector<tensor::Tensor> state_tensors() const override;
  void load_state_tensors(const std::vector<tensor::Tensor>& state) override;

 private:
  Options opts_;
  std::vector<tensor::Tensor> m_;
  std::vector<tensor::Tensor> v_;
  index_t t_ = 0;
};

}  // namespace oasis::nn

// The first-order optimizer over a set of Parameters.
#pragma once

#include <vector>

#include "nn/parameter.h"

namespace oasis::nn {

/// Adam (Kingma & Ba) with L2 weight decay, as the paper's Table 1 setup
/// (Adam, lr 1e-3, weight decay 1e-5 / 1e-3). Owns no parameters, only
/// references them.
class Adam {
 public:
  struct Options {
    real lr = 1e-3;
    real beta1 = 0.9;
    real beta2 = 0.999;
    real eps = 1e-8;
    real weight_decay = 0.0;
  };

  Adam(std::vector<Parameter*> params, Options opts);
  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update from the accumulated gradients.
  void step();

  /// Clears all parameter gradients.
  void zero_grad() {
    for (auto* p : params_) p->zero_grad();
  }

 private:
  std::vector<Parameter*> params_;
  Options opts_;
  std::vector<tensor::Tensor> m_;
  std::vector<tensor::Tensor> v_;
  index_t t_ = 0;
};

}  // namespace oasis::nn

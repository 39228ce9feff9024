#include "nn/optimizer.h"

#include <cmath>

namespace oasis::nn {

Adam::Adam(std::vector<Parameter*> params, Options opts)
    : params_(std::move(params)), opts_(opts) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  ++t_;
  const real bias1 = 1.0 - std::pow(opts_.beta1, static_cast<real>(t_));
  const real bias2 = 1.0 - std::pow(opts_.beta2, static_cast<real>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    auto value = p.value.data();
    auto grad = p.grad.data();
    auto m = m_[i].data();
    auto v = v_[i].data();
    for (index_t j = 0; j < value.size(); ++j) {
      const real g = grad[j] + opts_.weight_decay * value[j];
      m[j] = opts_.beta1 * m[j] + (1.0 - opts_.beta1) * g;
      v[j] = opts_.beta2 * v[j] + (1.0 - opts_.beta2) * g * g;
      const real mhat = m[j] / bias1;
      const real vhat = v[j] / bias2;
      value[j] -= opts_.lr * mhat / (std::sqrt(vhat) + opts_.eps);
    }
  }
}

}  // namespace oasis::nn

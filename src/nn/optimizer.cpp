#include "nn/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace oasis::nn {

namespace {

void check_slot_shapes(const std::vector<tensor::Tensor>& state,
                       std::size_t offset,
                       const std::vector<tensor::Tensor>& slots,
                       const char* what) {
  for (std::size_t i = 0; i < slots.size(); ++i) {
    OASIS_CHECK_MSG(state[offset + i].shape() == slots[i].shape(),
                    what << " slot " << i << " shape mismatch");
  }
}

}  // namespace

Adam::Adam(std::vector<Parameter*> params, Options opts)
    : Optimizer(std::move(params)), opts_(opts) {
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

std::vector<tensor::Tensor> Adam::state_tensors() const {
  std::vector<tensor::Tensor> state;
  state.reserve(m_.size() + v_.size() + 1);
  state.insert(state.end(), m_.begin(), m_.end());
  state.insert(state.end(), v_.begin(), v_.end());
  state.emplace_back(tensor::Shape{1},
                     std::vector<real>{static_cast<real>(t_)});
  return state;
}

void Adam::load_state_tensors(const std::vector<tensor::Tensor>& state) {
  OASIS_CHECK_MSG(state.size() == m_.size() + v_.size() + 1,
                  "Adam state has " << state.size() << " tensors, expected "
                                    << m_.size() + v_.size() + 1);
  check_slot_shapes(state, 0, m_, "m");
  check_slot_shapes(state, m_.size(), v_, "v");
  const tensor::Tensor& step = state.back();
  OASIS_CHECK_MSG(step.size() == 1, "Adam step tensor must be scalar-sized");
  std::copy(state.begin(),
            state.begin() + static_cast<std::ptrdiff_t>(m_.size()), m_.begin());
  std::copy(state.begin() + static_cast<std::ptrdiff_t>(m_.size()),
            state.begin() + static_cast<std::ptrdiff_t>(m_.size() + v_.size()),
            v_.begin());
  t_ = static_cast<index_t>(step.data()[0]);
}

}  // namespace oasis::nn

#include "nn/sequential.h"

#include <algorithm>

#include "nn/activations.h"
#include "nn/pooling.h"

namespace oasis::nn {

void Sequential::append(ModulePtr m) {
  OASIS_CHECK(m != nullptr);
  modules_.push_back(std::move(m));
  relink();
}

void Sequential::insert(index_t index, ModulePtr m) {
  OASIS_CHECK(m != nullptr);
  OASIS_CHECK_MSG(index <= modules_.size(),
                  "insert at " << index << " of " << modules_.size());
  modules_.insert(modules_.begin() + static_cast<std::ptrdiff_t>(index),
                  std::move(m));
  relink();
}

void Sequential::relink() {
  // The first child takes the caller's tensor as an lvalue, so a ReLU there
  // has no activation storage of its own to hand the pool; it runs unfused.
  fused_.assign(modules_.size(), nullptr);
  for (index_t i = 1; i + 1 < modules_.size(); ++i) {
    auto* pool = dynamic_cast<MaxPool2d*>(modules_[i + 1].get());
    if (pool != nullptr && pool->fuses_relu() &&
        dynamic_cast<ReLU*>(modules_[i].get()) != nullptr) {
      fused_[i] = pool;
    }
  }
}

Module& Sequential::at(index_t index) {
  OASIS_CHECK_MSG(index < modules_.size(),
                  "module " << index << " of " << modules_.size());
  return *modules_[index];
}

const Module& Sequential::at(index_t index) const {
  OASIS_CHECK_MSG(index < modules_.size(),
                  "module " << index << " of " << modules_.size());
  return *modules_[index];
}

tensor::Tensor Sequential::forward_child(index_t& i, tensor::Tensor&& h,
                                         bool training) {
  MaxPool2d* pool = fused_[i];
  if (pool != nullptr && pool->tiles(h)) {
    ++i;
    return pool->forward_relu(std::move(h), training);
  }
  return modules_[i]->forward(std::move(h), training);
}

template <typename G>
tensor::Tensor Sequential::backward_child(index_t& i, G&& g) {
  if (i > 0 && fused_[i - 1] != nullptr && fused_[i - 1]->relu_fused()) {
    --i;
    return fused_[i]->backward_relu(g);
  }
  return modules_[i]->backward(std::forward<G>(g));
}

tensor::Tensor Sequential::forward(const tensor::Tensor& x, bool training) {
  if (modules_.empty()) return x;
  tensor::Tensor h = modules_.front()->forward(x, training);
  for (index_t i = 1; i < modules_.size(); ++i) {
    h = forward_child(i, std::move(h), training);
  }
  return h;
}

tensor::Tensor Sequential::backward(const tensor::Tensor& grad_out) {
  if (modules_.empty()) return grad_out;
  index_t i = modules_.size() - 1;
  tensor::Tensor g = backward_child(i, grad_out);
  while (i-- > 0) g = backward_child(i, std::move(g));
  return g;
}

void Sequential::backward_params(const tensor::Tensor& grad_out) {
  const auto first_it = std::find_if(
      modules_.begin(), modules_.end(),
      [](const ModulePtr& m) { return !m->parameters().empty(); });
  if (first_it == modules_.end()) return;
  const auto first = static_cast<index_t>(first_it - modules_.begin());
  index_t i = modules_.size() - 1;
  if (i == first) {
    modules_[i]->backward_params(grad_out);
    return;
  }
  // A fused pair never ends the pass: its ReLU has no parameters, so it
  // lies behind `first`.
  tensor::Tensor g = backward_child(i, grad_out);
  while (--i != first) g = backward_child(i, std::move(g));
  modules_[first]->backward_params(g);
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& m : modules_) {
    for (auto* p : m->parameters()) params.push_back(p);
  }
  return params;
}

std::vector<tensor::Tensor*> Sequential::buffers() {
  std::vector<tensor::Tensor*> bufs;
  for (auto& m : modules_) {
    for (auto* b : m->buffers()) bufs.push_back(b);
  }
  return bufs;
}

}  // namespace oasis::nn

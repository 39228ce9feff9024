#include "nn/sequential.h"

#include <algorithm>

namespace oasis::nn {

void Sequential::append(ModulePtr m) {
  OASIS_CHECK(m != nullptr);
  modules_.push_back(std::move(m));
}

void Sequential::insert(index_t index, ModulePtr m) {
  OASIS_CHECK(m != nullptr);
  OASIS_CHECK_MSG(index <= modules_.size(),
                  "insert at " << index << " of " << modules_.size());
  modules_.insert(modules_.begin() + static_cast<std::ptrdiff_t>(index),
                  std::move(m));
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

tensor::Tensor Sequential::forward(const tensor::Tensor& x, bool training) {
  if (modules_.empty()) return x;
  tensor::Tensor h = modules_.front()->forward(x, training);
  for (auto it = modules_.begin() + 1; it != modules_.end(); ++it) {
    h = (*it)->forward(std::move(h), training);
  }
  return h;
}

tensor::Tensor Sequential::backward(const tensor::Tensor& grad_out) {
  if (modules_.empty()) return grad_out;
  tensor::Tensor g = modules_.back()->backward(grad_out);
  for (auto it = modules_.rbegin() + 1; it != modules_.rend(); ++it) {
    g = (*it)->backward(std::move(g));
  }
  return g;
}

void Sequential::backward_params(const tensor::Tensor& grad_out) {
  const auto first = std::find_if(
      modules_.begin(), modules_.end(),
      [](const ModulePtr& m) { return !m->parameters().empty(); });
  if (first == modules_.end()) return;
  const auto last = modules_.end() - 1;
  if (first == last) {
    (*last)->backward_params(grad_out);
    return;
  }
  tensor::Tensor g = (*last)->backward(grad_out);
  for (auto it = last - 1; it != first; --it) {
    g = (*it)->backward(std::move(g));
  }
  (*first)->backward_params(g);
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

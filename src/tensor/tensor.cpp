#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace oasis::tensor {

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(numel(shape_), 0.0) {}

Tensor::Tensor(Shape shape, std::vector<real> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  OASIS_CHECK_MSG(data_.size() == numel(shape_),
                  "Tensor: " << data_.size() << " values for shape "
                             << to_string(shape_));
}

Tensor Tensor::full(Shape shape, real value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(Shape shape, common::Rng& rng, real mean, real stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = rng.normal(mean, stddev);
  return t;
}

Tensor Tensor::rand(Shape shape, common::Rng& rng, real lo, real hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = rng.uniform(lo, hi);
  return t;
}

index_t Tensor::dim(index_t d) const {
  OASIS_CHECK_MSG(d < shape_.size(),
                  "dim " << d << " out of range for " << to_string(shape_));
  return shape_[d];
}

namespace {

index_t checked_flat_index(const Shape& shape,
                           std::initializer_list<index_t> idx) {
  OASIS_CHECK_MSG(idx.size() == shape.size(),
                  "at(): rank " << idx.size() << " index into "
                                << to_string(shape));
  index_t flat = 0;
  index_t d = 0;
  for (const auto i : idx) {
    OASIS_CHECK_MSG(i < shape[d], "at(): index " << i << " out of range in dim "
                                                 << d << " of "
                                                 << to_string(shape));
    flat = flat * shape[d] + i;
    ++d;
  }
  return flat;
}

}  // namespace

real& Tensor::at(std::initializer_list<index_t> idx) {
  return data_[checked_flat_index(shape_, idx)];
}

real Tensor::at(std::initializer_list<index_t> idx) const {
  return data_[checked_flat_index(shape_, idx)];
}

Tensor Tensor::reshaped(Shape new_shape) const {
  Tensor t = *this;
  t.reshape(std::move(new_shape));
  return t;
}

void Tensor::reshape(Shape new_shape) {
  OASIS_CHECK_MSG(numel(new_shape) == data_.size(),
                  "reshape " << to_string(shape_) << " -> "
                             << to_string(new_shape));
  shape_ = std::move(new_shape);
}

Tensor Tensor::row(index_t i) const {
  OASIS_CHECK_MSG(rank() == 2, "row(): tensor is rank " << rank());
  OASIS_CHECK_MSG(i < shape_[0], "row " << i << " out of range");
  const index_t cols = shape_[1];
  std::vector<real> values(data_.begin() + static_cast<std::ptrdiff_t>(i * cols),
                           data_.begin() + static_cast<std::ptrdiff_t>((i + 1) * cols));
  return Tensor({cols}, std::move(values));
}

Tensor Tensor::slice(index_t n) const {
  OASIS_CHECK_MSG(rank() >= 1, "slice(): rank-0 tensor");
  OASIS_CHECK_MSG(n < shape_[0], "slice " << n << " out of range");
  Shape inner(shape_.begin() + 1, shape_.end());
  const index_t stride = numel(inner);
  std::vector<real> values(
      data_.begin() + static_cast<std::ptrdiff_t>(n * stride),
      data_.begin() + static_cast<std::ptrdiff_t>((n + 1) * stride));
  return Tensor(std::move(inner), std::move(values));
}

Tensor& Tensor::operator+=(const Tensor& rhs) {
  check_same_shape(shape_, rhs.shape_, "operator+=");
  for (index_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& rhs) {
  check_same_shape(shape_, rhs.shape_, "operator-=");
  for (index_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(real s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Tensor& Tensor::operator/=(real s) {
  OASIS_CHECK_MSG(s != 0.0, "division by zero");
  return *this *= (1.0 / s);
}

Tensor& Tensor::mul_(const Tensor& rhs) {
  check_same_shape(shape_, rhs.shape_, "mul_");
  for (index_t i = 0; i < data_.size(); ++i) data_[i] *= rhs.data_[i];
  return *this;
}

Tensor& Tensor::add_scaled_(const Tensor& rhs, real alpha) {
  check_same_shape(shape_, rhs.shape_, "add_scaled_");
  for (index_t i = 0; i < data_.size(); ++i)
    data_[i] = std::fma(alpha, rhs.data_[i], data_[i]);
  return *this;
}

void Tensor::fill(real value) {
  std::fill(data_.begin(), data_.end(), value);
}

real Tensor::sum() const {
  real s = 0.0;
  for (const auto v : data_) s += v;
  return s;
}

real Tensor::mean() const {
  OASIS_CHECK(!data_.empty());
  return sum() / static_cast<real>(data_.size());
}

real Tensor::min() const {
  OASIS_CHECK(!data_.empty());
  return *std::min_element(data_.begin(), data_.end());
}

real Tensor::max() const {
  OASIS_CHECK(!data_.empty());
  return *std::max_element(data_.begin(), data_.end());
}

index_t Tensor::argmax() const {
  OASIS_CHECK(!data_.empty());
  return static_cast<index_t>(
      std::max_element(data_.begin(), data_.end()) - data_.begin());
}

real Tensor::norm() const {
  real s = 0.0;
  for (const auto v : data_) s = std::fma(v, v, s);
  return std::sqrt(s);
}

Tensor operator+(Tensor lhs, const Tensor& rhs) { return lhs += rhs; }
Tensor operator-(Tensor lhs, const Tensor& rhs) { return lhs -= rhs; }
Tensor operator*(Tensor lhs, real s) { return lhs *= s; }
Tensor operator*(real s, Tensor rhs) { return rhs *= s; }

}  // namespace oasis::tensor

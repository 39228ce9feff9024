// Shared helpers for the OASIS test suites.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <string>
#include <system_error>

#include "nn/module.h"
#include "tensor/tensor.h"

namespace oasis::testutil {

/// A scratch directory under the gtest temp root, "oasis_<tag>_<pid>". The
/// pid keeps two test processes running at once out of each other's files.
/// It is removed on entry, in case a killed run with the same pid left it
/// behind, and on exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : root_(std::filesystem::path(::testing::TempDir()) /
              ("oasis_" + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] std::string str() const { return root_.string(); }
  [[nodiscard]] std::string path(const std::string& leaf) const {
    return (root_ / leaf).string();
  }

 private:
  std::filesystem::path root_;
};

/// Scalar probe loss L = Σ_i r_i · y_i for a fixed random direction r.
/// Its analytic gradient w.r.t. y is simply r, which lets us finite-
/// difference any module: backward(r) must produce dL/dx and accumulate
/// dL/dθ for this L.
struct GradientProbe {
  tensor::Tensor direction;  // r, same shape as the module output

  [[nodiscard]] real loss(const tensor::Tensor& y) const {
    real s = 0.0;
    auto r = direction.data();
    auto v = y.data();
    for (index_t i = 0; i < v.size(); ++i) s += r[i] * v[i];
    return s;
  }
};

/// Central-difference derivative of `f` w.r.t. one scalar location.
inline real numeric_derivative(const std::function<real()>& f, real& x,
                               real h = 1e-6) {
  const real saved = x;
  x = saved + h;
  const real up = f();
  x = saved - h;
  const real down = f();
  x = saved;
  return (up - down) / (2.0 * h);
}

/// Checks every parameter gradient and the input gradient of `module`
/// against central differences. Returns the max absolute error observed.
/// `x` is the probe input; a fresh forward pass runs per perturbation.
real check_gradients(nn::Module& module, const tensor::Tensor& x,
                     common::Rng& rng, bool training = true);

}  // namespace oasis::testutil

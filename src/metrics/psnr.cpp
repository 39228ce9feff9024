#include "metrics/psnr.h"

#include <cmath>

#include "tensor/shape.h"

namespace oasis::metrics {

real mse(const tensor::Tensor& a, const tensor::Tensor& b) {
  tensor::check_same_shape(a.shape(), b.shape(), "mse");
  OASIS_CHECK(a.size() > 0);
  real s = 0.0;
  auto pa = a.data();
  auto pb = b.data();
  for (index_t i = 0; i < pa.size(); ++i) {
    const real d = pa[i] - pb[i];
    s += d * d;
  }
  return s / static_cast<real>(pa.size());
}

real psnr(const tensor::Tensor& reconstruction,
          const tensor::Tensor& original, real peak) {
  const real err = mse(reconstruction, original);
  if (err <= 0.0) return kPsnrCap;
  const real value = 10.0 * std::log10(peak * peak / err);
  return std::min(value, kPsnrCap);
}

}  // namespace oasis::metrics

// Image-quality metrics: MSE and PSNR.
//
// PSNR is the paper's attack-success measure: reconstructions above ~120 dB
// are verbatim copies (limited only by floating-point error), 25-35 dB are
// visibly degraded, below ~20 dB the content is unrecognizable.
#pragma once

#include "tensor/tensor.h"

namespace oasis::metrics {

/// Values above this are clamped — an exactly-zero MSE would otherwise give
/// +inf. The cap sits just above the paper's "perfect reconstruction" band
/// (130-145 dB): the authors' float32 pipeline leaves ~1e-7 relative error
/// in a verbatim copy, whereas this double-precision pipeline often
/// reconstructs bit-exactly; capping at 150 dB keeps the two scales
/// comparable (anything at/above ~130 dB means "verbatim copy" either way).
inline constexpr real kPsnrCap = 150.0;

/// Mean squared error between same-shaped tensors.
real mse(const tensor::Tensor& a, const tensor::Tensor& b);

/// Peak signal-to-noise ratio in dB: 10·log10(peak² / MSE), clamped to
/// kPsnrCap. `peak` is the dynamic range (1.0 for our images).
real psnr(const tensor::Tensor& reconstruction, const tensor::Tensor& original,
          real peak = 1.0);

}  // namespace oasis::metrics

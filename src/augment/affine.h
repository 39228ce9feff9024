// Image-plane warps: the geometric kernels behind every OASIS transform.
//
// Two implementation classes, chosen deliberately:
//   * Exact index permutations for 90°-multiples and flips. These preserve
//     the multiset of pixel values — and therefore the image mean — exactly,
//     which is the property that makes major rotation defeat RTF's
//     mean-brightness binning (the original and its rotations land in the
//     same bin bit-for-bit).
//   * Circular sinc (Dirichlet-kernel) shears for rotate()/shear(). A
//     rotation is decomposed into three shears (Unser/Paeth), each an
//     exactly invertible circular shift of rows or columns, so
//     rotate(-θ)∘rotate(θ) and shear(-μ)∘shear(μ) are near-identities even
//     on broadband (noise) images — a property no local resampling kernel
//     can offer. Rotation then zero-masks pixels whose source falls outside
//     the frame, keeping the conventional corner-mass loss.
#pragma once

#include <array>

#include "tensor/tensor.h"

namespace oasis::augment {

/// Row-major 2×3 affine matrix mapping OUTPUT pixel coords (x, y) to INPUT
/// coords: in_x = m[0]*x + m[1]*y + m[2]; in_y = m[3]*x + m[4]*y + m[5].
using AffineMatrix = std::array<real, 6>;

/// Composes the inverse-map matrix for a rotation of `theta` radians about
/// the image center (w/2-0.5, h/2-0.5).
AffineMatrix rotation_matrix(real theta, index_t height, index_t width);

/// Exact rotations by index permutation (square images only for 90/270).
tensor::Tensor rotate90(const tensor::Tensor& image);
tensor::Tensor rotate180(const tensor::Tensor& image);
tensor::Tensor rotate270(const tensor::Tensor& image);

/// Exact mirror flips (Appendix B, Eqs. 6-7).
tensor::Tensor flip_horizontal(const tensor::Tensor& image);
tensor::Tensor flip_vertical(const tensor::Tensor& image);

/// Arbitrary-angle rotation (radians) via three circular sinc shears;
/// quarter turns snap to the exact permutations; pixels whose inverse-map
/// source falls outside the frame are zeroed.
tensor::Tensor rotate(const tensor::Tensor& image, real theta);

/// Shear with factor `mu` via one exactly invertible circular sinc shift
/// per row (content wraps around instead of vanishing).
tensor::Tensor shear(const tensor::Tensor& image, real mu);

}  // namespace oasis::augment

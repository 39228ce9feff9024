// Fundamental scalar and index types shared by every OASIS subsystem.
#pragma once

#include <cstddef>
#include <cstdint>

namespace oasis {

/// Scalar type for all model/attack arithmetic.
///
/// Double precision is load-bearing: the paper's "perfect reconstruction"
/// signature (PSNR 130-145 dB) corresponds to a pixel-space MSE of ~1e-14,
/// which is only reachable when the gradient inversion arithmetic carries
/// ~1e-15 relative error. Single precision would cap PSNR near 120 dB.
using real = double;

/// Index type for tensor shapes and loops.
using index_t = std::size_t;

}  // namespace oasis

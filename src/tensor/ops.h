// Linear-algebra and NN-support kernels on Tensor.
//
// All matrix kernels operate on rank-2 tensors with row-major layout. The
// matmul family dispatches into the blocked+packed kernel unit in
// tensor/gemm/ (one FMA register kernel, 6×8 or 12×8 on AVX-512 hosts,
// L2-sized packed panels, workspace arenas); the pre-blocking naive triple loops are retained there
// behind OASIS_NAIVE_GEMM as the differential-test oracle, bit-identical by
// construction on every host (DESIGN.md §5f/§5k). Layers that need a transposed
// operand (Dense, Conv2d backward) call gemm::run with the TN/NT variants
// directly; Conv2d lowers its samples straight into packed panels and calls
// gemm::run_packed. This is the single hot spot of training and of the
// attack's reconstruction arithmetic.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace oasis::tensor {

/// C = A(m×k) · B(k×n).
Tensor matmul(const Tensor& a, const Tensor& b);

/// Explicit transpose of a rank-2 tensor.
Tensor transpose(const Tensor& a);

/// Strided transpose of a rows × cols block: dst[j·ldd + i] = src[i·lds + j].
/// Full 4×4 blocks are transposed in registers, the ragged edges one element
/// at a time. It only moves values, so NaN payloads and signed zeros arrive
/// unchanged. The blocks must not overlap.
void transpose_block(const real* src, index_t rows, index_t cols,
                     index_t lds, real* dst, index_t ldd);

/// Sum of a rank-2 tensor over rows: result[j] = Σ_i a[i,j]. This is exactly
/// the batch-summed bias gradient the reconstruction attacks invert.
Tensor sum_rows(const Tensor& a);

/// Adds a rank-1 bias to every row of a rank-2 tensor in place.
void add_row_vector(Tensor& a, const Tensor& bias);

/// Which elements of a ReLU's input pass gradient: keep[i] = !(x[i] <= 0),
/// one byte per element, plus the input shape. −0.0 is dropped; NaN and
/// +inf are kept.
struct ReluMask {
  Shape shape;
  std::vector<std::uint8_t> keep;
};

/// In-place ReLU: a[i] = max(a[i], 0) (−0.0 and NaN pass through as
/// std::max leaves them), recording the keep-mask of the input in `mask`.
void relu_(Tensor& a, ReluMask& mask);

/// In-place ReLU backward: zeroes grad[i] wherever !mask.keep[i]. Throws
/// ShapeError unless `grad` has the shape the mask was recorded at.
void relu_backward_(Tensor& grad, const ReluMask& mask);

/// Row-wise softmax of a rank-2 tensor (numerically stabilized).
Tensor softmax_rows(const Tensor& logits);

/// Row-wise log-softmax of a rank-2 tensor (numerically stabilized).
Tensor log_softmax_rows(const Tensor& logits);

// im2col for 2-D convolution, lowered straight into packed GEMM panels
// (DESIGN.md §5k); no function builds the plain column matrix
// [C*k*k, out_h*out_w]. Both lowerings read one [C, H, W] image at `src`
// through a zero-padded copy in the calling thread's workspace, write every
// value of the packed operand (zero-padded rows included) in the
// gemm::run_packed layout, and count one kernel.im2col call. Square k×k
// kernels, zero padding `pad`, stride >= 1; taps run in (channel, ki, kj)
// order, pixels in row-major output order.

/// The im2row operand colsᵀ (out_h*out_w × C*k*k), row p the receptive
/// field of output pixel p, as gemm::packed_a_size(pixels, C*k*k) values:
/// the A of the forward product outᵀ = colsᵀ·Wᵀ.
void im2row_packed(const real* src, index_t channels, index_t height,
                   index_t width, index_t k, index_t stride, index_t pad,
                   real* ap);

/// The column matrix cols (C*k*k × out_h*out_w) as
/// gemm::packed_a_size(C*k*k, pixels) values: the A of the weight-gradient
/// product gWᵀ = cols·gyᵀ.
void im2col_packed(const real* src, index_t channels, index_t height,
                   index_t width, index_t k, index_t stride, index_t pad,
                   real* ap);

/// Adjoint of im2col: folds a [C*kh*kw, out_h*out_w] column matrix back into
/// a [C, H, W] image, summing overlapping contributions.
Tensor col2im(const Tensor& cols, index_t channels, index_t height,
              index_t width, index_t kh, index_t kw, index_t stride,
              index_t pad);

/// Raw-buffer col2im: accumulates (`+=`) the folded image into `dst`, which
/// the caller must have zeroed (or hold a partial image to add onto). Every
/// image element receives its terms in the same order as an element-wise
/// fold over (channel, ki, kj, oi, oj); padding terms are skipped by span.
void col2im_add(const real* cols, index_t channels, index_t height,
                index_t width, index_t kh, index_t kw, index_t stride,
                index_t pad, real* dst);

/// Output spatial extent of a convolution/pool along one axis.
index_t conv_out_extent(index_t in, index_t k, index_t stride, index_t pad);

/// Max-absolute-difference between two same-shaped tensors.
real max_abs_diff(const Tensor& a, const Tensor& b);

/// True iff all |a-b| <= atol + rtol*|b| element-wise (same shape required).
bool allclose(const Tensor& a, const Tensor& b, real rtol = 1e-9,
              real atol = 1e-12);

}  // namespace oasis::tensor

#pragma once
/// \file gemm.hpp
/// Compute kernels for the nn layer: a cache-blocked, register-tiled
/// single-precision GEMM plus the im2col/col2im lowering that turns 2-D
/// convolution into matrix multiplication (the classic Caffe-era CPU
/// recipe). These primitives exist so nn::Conv2d / nn::Linear can route
/// their forward AND backward passes through one tuned inner loop instead
/// of per-layer nested loops (nn::KernelKind::kGemm). The blocked loop nest
/// (packing, block loops, alpha/beta fold) is one copy, shared with the SIMD
/// path (simd.hpp) through the internal gemm_blocked.hpp; each kernel keeps
/// only its block sizes and its register micro-tile.
///
/// Determinism contract: for a fixed problem shape the summation order of
/// every output element is fixed (k is traversed block-by-block in
/// ascending order inside an accumulator register), so repeated calls are
/// bit-identical run-to-run. The order differs from a naive k-loop, so
/// results may differ from the reference kernels by float-rounding only
/// (|delta| well under 1e-6 for the estimator's value ranges — pinned by
/// tests/nn_kernel_test.cpp).

#include <algorithm>
#include <cstddef>

#include "tensor/tensor.hpp"

namespace omniboost::tensor {

/// C = alpha * op(A) * op(B) + beta * C over row-major buffers.
///
/// op(A) is (m x k), op(B) is (k x n), C is (m x n); lda/ldb/ldc are the
/// row strides of the *stored* matrices (so for trans_a the stored A is
/// (k x m) with row stride lda). Aliasing between C and A/B is not
/// supported. beta == 0 overwrites C (NaN-safe), beta == 1 accumulates.
void gemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, const float* a, std::size_t lda,
          const float* b, std::size_t ldb, float beta, float* c,
          std::size_t ldc);

namespace detail {

/// The argument checks and trivial cases of gemm() and gemm_simd(): throws
/// on a null operand or a too-small stride, then returns true iff the call
/// is already complete — m == 0 or n == 0 (no-op), or k == 0 or
/// alpha == 0 (C scaled by beta; beta == 0 overwrites, NaN-safe). On false
/// the caller runs its blocked GEMM.
bool gemm_trivial(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                  std::size_t k, float alpha, const float* a, std::size_t lda,
                  const float* b, std::size_t ldb, float beta, float* c,
                  std::size_t ldc);

}  // namespace detail

/// Tensor-level matrix product: (m, k) x (k, n) -> (m, n).
Tensor matmul(const Tensor& a, const Tensor& b);

/// Output spatial extent of a convolution axis: (in + 2*pad - kernel) /
/// stride + 1. Requires in + 2*pad >= kernel and stride >= 1.
std::size_t conv_out_extent(std::size_t in, std::size_t kernel,
                            std::size_t stride, std::size_t pad);

/// The output positions [lo, hi) along one convolution axis whose input
/// position o*stride + off lies inside [0, in), for a tap at offset
/// off = k - pad: the taps outside it read zero padding. out is the output
/// extent; lo <= hi <= out.
inline void conv_tap_range(std::size_t out, std::size_t in,
                           std::size_t stride, std::ptrdiff_t off,
                           std::size_t& lo, std::size_t& hi) {
  const auto s = static_cast<std::ptrdiff_t>(stride);
  // o*stride + off in [0, in)  =>  o in [ceil(-off/stride), (in-1-off)/stride]
  const std::ptrdiff_t lo_s = off < 0 ? (-off + s - 1) / s : 0;
  const std::ptrdiff_t last = static_cast<std::ptrdiff_t>(in) - 1 - off;
  const std::ptrdiff_t hi_s = last >= 0 ? last / s + 1 : 0;
  const auto o = static_cast<std::ptrdiff_t>(out);
  const std::ptrdiff_t l = std::min(lo_s, o);
  lo = static_cast<std::size_t>(l);
  hi = static_cast<std::size_t>(std::max(std::min(hi_s, o), l));
}

/// Lowers one image (channels x h x w, row-major) into the column matrix
/// cols (channels*kernel*kernel rows, row stride ldcols >= oh*ow): column p
/// holds the receptive field of output pixel p, rows ordered (c, ky, kx) —
/// the same order as Conv2d's (out_ch, in_ch, k, k) weight layout, so a
/// convolution becomes Y = W_matrix * cols. Out-of-image taps (zero
/// padding) become zeros; columns past oh*ow are not touched, so a batch
/// can lower sample b into columns [b*oh*ow, (b+1)*oh*ow) of one matrix.
void im2col(const float* img, std::size_t channels, std::size_t h,
            std::size_t w, std::size_t kernel, std::size_t stride,
            std::size_t pad, float* cols, std::size_t ldcols);

/// Adjoint of im2col: scatters the column matrix back onto the image,
/// *accumulating* overlapping taps (the gradient lowering used by
/// Conv2d::backward). The caller zero-initializes img.
void col2im(const float* cols, std::size_t channels, std::size_t h,
            std::size_t w, std::size_t kernel, std::size_t stride,
            std::size_t pad, float* img);

/// Tensor wrapper over im2col for a single (C, H, W) image; returns the
/// (C*kernel*kernel, OH*OW) column matrix.
Tensor im2col(const Tensor& img, std::size_t kernel, std::size_t stride,
              std::size_t pad);

/// Tensor wrapper over col2im: folds a (C*kernel*kernel, OH*OW) column
/// matrix back into a zero-initialized (C, H, W) image.
Tensor col2im(const Tensor& cols, std::size_t channels, std::size_t h,
              std::size_t w, std::size_t kernel, std::size_t stride,
              std::size_t pad);

}  // namespace omniboost::tensor

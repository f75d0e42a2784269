#pragma once
/// \file gemm_dispatch.hpp
/// Internal helpers shared by the im2col-lowered layers (Conv2d, Linear):
/// dispatch_gemm routes one GEMM call to the runtime-dispatched SIMD path
/// for kSimd and to the blocked scalar path otherwise, and bias_bn_gelu is
/// the fused conv block's epilogue. kReference never reaches this — the
/// layers branch to their naive loops before lowering to GEMM at all.

#include "nn/kernel.hpp"
#include "nn/layers.hpp"
#include "tensor/gemm.hpp"
#include "tensor/simd.hpp"

namespace omniboost::nn::detail {

/// The fused block's epilogue over one channel's n values:
/// dst[i] = gelu(bn.apply(src[i] + *bias)), the add skipped when bias is
/// null, with GELU's kGemm/kSimd rational tanh. src may equal dst. Defined
/// in activations.cpp beside that forward, so it vectorizes the same way.
void bias_bn_gelu(const float* src, float* dst, std::size_t n,
                  const float* bias, BatchNorm2d::Affine bn);

inline void dispatch_gemm(KernelKind kind, bool trans_a, bool trans_b,
                          std::size_t m, std::size_t n, std::size_t k,
                          float alpha, const float* a, std::size_t lda,
                          const float* b, std::size_t ldb, float beta,
                          float* c, std::size_t ldc) {
  if (kind == KernelKind::kSimd) {
    tensor::gemm_simd(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta,
                      c, ldc);
  } else {
    tensor::gemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c,
                 ldc);
  }
}

}  // namespace omniboost::nn::detail

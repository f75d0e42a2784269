#pragma once
/// \file epilogue.hpp
/// Internal: the fused conv block's epilogue, shared by Conv2d (which runs
/// it on the GEMM output) and activations.cpp (which defines it). kReference
/// never reaches this — the layers branch to their naive loops before
/// lowering to GEMM at all.

#include <cstddef>

#include "nn/layers.hpp"

namespace omniboost::nn::detail {

/// The fused block's epilogue over one channel's n values:
/// dst[i] = gelu(bn.apply(src[i] + *bias)), the add skipped when bias is
/// null, with GELU's kGemm rational tanh. src may equal dst. Defined in
/// activations.cpp beside that forward, so it vectorizes the same way.
void bias_bn_gelu(const float* src, float* dst, std::size_t n,
                  const float* bias, BatchNorm2d::Affine bn);

}  // namespace omniboost::nn::detail

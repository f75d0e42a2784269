/// \file simd.cpp
/// Runtime dispatch for the SIMD GEMM path. Deliberately compiled WITHOUT
/// ISA flags (unlike gemm_simd.cpp): every instruction here must run on the
/// portable baseline, because this is the code that decides — via cpuid —
/// whether the ISA-flagged kernels may be entered at all.

#include "tensor/simd.hpp"

#include <cstring>

#include "tensor/gemm.hpp"

namespace omniboost::tensor {

namespace {

bool host_supports_simd() {
  if (std::strcmp(detail::simd_kernel_isa(), "none") == 0) return false;
#if defined(__x86_64__) || defined(__i386__)
#if defined(__GNUC__) || defined(__clang__)
  // The kernels were compiled for AVX2+FMA; only enter them when the
  // running CPU actually reports both (one binary, any x86-64 host).
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;  // no portable cpuid on this compiler — stay scalar
#endif
#else
  // aarch64: NEON is part of the baseline ISA, so compiled-in == runnable.
  return true;
#endif
}

}  // namespace

bool simd_supported() {
  static const bool supported = host_supports_simd();
  return supported;
}

const char* simd_isa() {
  return simd_supported() ? detail::simd_kernel_isa() : "none";
}

void gemm_simd(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
               std::size_t k, float alpha, const float* a, std::size_t lda,
               const float* b, std::size_t ldb, float beta, float* c,
               std::size_t ldc) {
  if (!simd_supported()) {
    // Silent degradation to the blocked scalar path — identical contract,
    // so kSimd layers run correctly on any host. Callers that want to
    // surface the downgrade check simd_supported() themselves
    // (nn::kernel_resolution_note).
    gemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    return;
  }
  if (detail::gemm_trivial(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb,
                           beta, c, ldc))
    return;
  detail::gemm_simd_kernel(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb,
                           beta, c, ldc);
}

}  // namespace omniboost::tensor

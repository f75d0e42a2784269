#pragma once
/// \file simd.hpp
/// Explicit-SIMD GEMM path (nn::KernelKind::kSimd): tensor::gemm's blocked
/// loop nest (one copy, gemm_blocked.hpp) with its own block sizes and a
/// hand-written FMA micro-tile — 6x16 AVX2 on x86-64, 4x8 NEON on aarch64 —
/// instead of kGemm's tiles. The library itself is still compiled without
/// global -march flags: only the kernel translation unit (gemm_simd.cpp)
/// gets per-source -mavx2 -mfma, and gemm_simd() selects it at runtime via
/// cpuid, so one binary runs correctly on any host. tensor::gemm enters its
/// own AVX2 tile (gemm_vector.cpp, no FMA) behind the same cpuid gate.
///
/// Dispatch rule: gemm_simd() runs the SIMD micro-kernels iff they were
/// compiled in AND the running CPU reports the ISA (simd_supported());
/// otherwise it silently degrades to the blocked scalar tensor::gemm — same
/// contract, same result class. Callers that want to *report* the
/// degradation (the CLI's --kernel flag, nn::resolve_kernel) ask
/// simd_supported()/simd_isa() instead of probing.
///
/// Determinism contract: like tensor::gemm, the summation order per output
/// element is fixed, so repeated calls are bit-identical run-to-run. The
/// order (and FMA contraction) differs from both the scalar blocked path
/// and the reference loops, so results match those within float rounding
/// (<= 1e-5 end-to-end on the estimator's value ranges — pinned by
/// tests/nn_kernel_test.cpp), not bitwise.

#include <cstddef>

namespace omniboost::tensor {

/// True iff the SIMD micro-kernels were compiled in AND the running CPU
/// supports the required ISA (AVX2+FMA on x86-64; NEON is baseline on
/// aarch64). Evaluated once per process.
bool simd_supported();

/// "avx2", "neon", or "none" (not compiled in, or the host CPU lacks the
/// ISA). Diagnostic surface for bench tables and the CLI.
const char* simd_isa();

/// C = alpha * op(A) * op(B) + beta * C — the tensor::gemm contract (see
/// gemm.hpp), served by the SIMD micro-kernels when simd_supported(), by
/// the blocked scalar tensor::gemm otherwise. The fallback is silent by
/// design: layer code may call this unconditionally for kSimd.
void gemm_simd(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
               std::size_t k, float alpha, const float* a, std::size_t lda,
               const float* b, std::size_t ldb, float beta, float* c,
               std::size_t ldc);

namespace detail {

/// ISA name of the compiled kernel section ("avx2"/"neon"), or "none" when
/// gemm_simd.cpp was built without one (compile-time capability;
/// simd_supported() adds the runtime cpuid check on top).
const char* simd_kernel_isa();

/// The raw SIMD blocked driver. Preconditions (argument validation, the
/// m/n/k == 0 and alpha == 0 early-outs) are handled by gemm_simd() through
/// gemm_trivial() — this must only be called when simd_supported() and
/// m, n, k > 0, alpha != 0.
void gemm_simd_kernel(bool trans_a, bool trans_b, std::size_t m,
                      std::size_t n, std::size_t k, float alpha,
                      const float* a, std::size_t lda, const float* b,
                      std::size_t ldb, float beta, float* c, std::size_t ldc);

}  // namespace detail

}  // namespace omniboost::tensor

/// \file gemm_simd.cpp
/// The SIMD micro-kernel translation unit, compiled with -mavx2 -mfma
/// (applied per-source by CMake on x86-64 when the compiler accepts them;
/// NEON is baseline on aarch64), so nothing outside gemm_simd_kernel() may
/// call into it without the runtime cpuid gate in simd.cpp — the compiler
/// is free to use the ISA anywhere in this TU. (gemm_vector.cpp, kGemm's
/// AVX2 tile, is the other ISA-flagged TU, and it excludes FMA.)
///
/// The blocked GEMM (packing, block loops, edge fold) is the one gemm.cpp
/// runs, shared through gemm_blocked.hpp, whose internal linkage keeps this
/// TU's AVX2/FMA instantiations out of the kGemm paths. This file keeps
/// only its block sizes and its register micro-tile: 6x16 AVX2 FMA (12
/// accumulator ymm registers + 2 B loads + 1 A broadcast = 15 of 16) or 4x8
/// NEON FMA (8 accumulator q registers).

#include "tensor/simd.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__) && \
    defined(__FMA__)
#include <immintrin.h>
#define OMNIBOOST_SIMD_KERNELS 1
#define OMNIBOOST_SIMD_ISA "avx2"
#elif defined(__aarch64__)
#include <arm_neon.h>
#define OMNIBOOST_SIMD_KERNELS 1
#define OMNIBOOST_SIMD_ISA "neon"
#endif

#ifdef OMNIBOOST_SIMD_KERNELS
#include "tensor/gemm_blocked.hpp"
#endif

namespace omniboost::tensor::detail {

#ifdef OMNIBOOST_SIMD_KERNELS

namespace {

constexpr std::size_t kMC = 96;   // rows of op(A) per block (multiple of kMR)
constexpr std::size_t kKC = 256;  // shared dimension per block
constexpr std::size_t kNC = 256;  // cols of op(B) per block (multiple of kNR)

/// The register micro-tile blocked_gemm sweeps: full tiles fold in
/// registers, edge tiles spill and fold through fold_tile.
struct SimdTile {
#ifdef __AVX2__
  static constexpr std::size_t kMR = 6;   // rows (one A broadcast each)
  static constexpr std::size_t kNR = 16;  // cols (two ymm lanes)
#else
  static constexpr std::size_t kMR = 4;  // rows
  static constexpr std::size_t kNR = 8;  // cols (two q lanes)
#endif
  static void run(const float* apanel, const float* bpanel, std::size_t kc,
                  float alpha, float beta, bool first_kblock, float* c,
                  std::size_t ldc, std::size_t rows, std::size_t cols);
};

#ifdef __AVX2__

/// 6x16 FMA micro-tile: acc = sum_k apanel[k] (broadcast) * bpanel[k] (two
/// ymm loads), folded into C with alpha (and beta on the first k-block).
void SimdTile::run(const float* apanel, const float* bpanel, std::size_t kc,
                   float alpha, float beta, bool first_kblock, float* c,
                   std::size_t ldc, std::size_t rows, std::size_t cols) {
  __m256 acc[kMR][2];
  for (std::size_t i = 0; i < kMR; ++i)
    acc[i][0] = acc[i][1] = _mm256_setzero_ps();
  for (std::size_t k = 0; k < kc; ++k) {
    const float* bk = bpanel + k * kNR;
    const __m256 b0 = _mm256_loadu_ps(bk);
    const __m256 b1 = _mm256_loadu_ps(bk + 8);
    const float* ak = apanel + k * kMR;
    for (std::size_t i = 0; i < kMR; ++i) {
      const __m256 av = _mm256_broadcast_ss(ak + i);
      acc[i][0] = _mm256_fmadd_ps(av, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(av, b1, acc[i][1]);
    }
  }
  if (rows == kMR && cols == kNR) {
    // Full-tile fast path: fold in registers.
    const __m256 valpha = _mm256_set1_ps(alpha);
    for (std::size_t i = 0; i < kMR; ++i) {
      float* crow = c + i * ldc;
      __m256 lo = _mm256_mul_ps(valpha, acc[i][0]);
      __m256 hi = _mm256_mul_ps(valpha, acc[i][1]);
      if (first_kblock) {
        if (beta != 0.0f) {
          const __m256 vbeta = _mm256_set1_ps(beta);
          lo = _mm256_fmadd_ps(vbeta, _mm256_loadu_ps(crow), lo);
          hi = _mm256_fmadd_ps(vbeta, _mm256_loadu_ps(crow + 8), hi);
        }
      } else {
        lo = _mm256_add_ps(_mm256_loadu_ps(crow), lo);
        hi = _mm256_add_ps(_mm256_loadu_ps(crow + 8), hi);
      }
      _mm256_storeu_ps(crow, lo);
      _mm256_storeu_ps(crow + 8, hi);
    }
    return;
  }
  // Edge tile: spill and fold scalar over the live rows/columns.
  alignas(32) float tile[kMR][kNR];
  for (std::size_t i = 0; i < kMR; ++i) {
    _mm256_store_ps(tile[i], acc[i][0]);
    _mm256_store_ps(tile[i] + 8, acc[i][1]);
  }
  fold_tile(tile, alpha, beta, first_kblock, c, ldc, rows, cols);
}

#else  // NEON

/// 4x8 FMA micro-tile (two q-register lanes per row).
void SimdTile::run(const float* apanel, const float* bpanel, std::size_t kc,
                   float alpha, float beta, bool first_kblock, float* c,
                   std::size_t ldc, std::size_t rows, std::size_t cols) {
  float32x4_t acc[kMR][2];
  for (std::size_t i = 0; i < kMR; ++i)
    acc[i][0] = acc[i][1] = vdupq_n_f32(0.0f);
  for (std::size_t k = 0; k < kc; ++k) {
    const float* bk = bpanel + k * kNR;
    const float32x4_t b0 = vld1q_f32(bk);
    const float32x4_t b1 = vld1q_f32(bk + 4);
    const float* ak = apanel + k * kMR;
    for (std::size_t i = 0; i < kMR; ++i) {
      const float32x4_t av = vdupq_n_f32(ak[i]);
      acc[i][0] = vfmaq_f32(acc[i][0], av, b0);
      acc[i][1] = vfmaq_f32(acc[i][1], av, b1);
    }
  }
  if (rows == kMR && cols == kNR) {
    const float32x4_t valpha = vdupq_n_f32(alpha);
    for (std::size_t i = 0; i < kMR; ++i) {
      float* crow = c + i * ldc;
      float32x4_t lo = vmulq_f32(valpha, acc[i][0]);
      float32x4_t hi = vmulq_f32(valpha, acc[i][1]);
      if (first_kblock) {
        if (beta != 0.0f) {
          const float32x4_t vbeta = vdupq_n_f32(beta);
          lo = vfmaq_f32(lo, vbeta, vld1q_f32(crow));
          hi = vfmaq_f32(hi, vbeta, vld1q_f32(crow + 4));
        }
      } else {
        lo = vaddq_f32(vld1q_f32(crow), lo);
        hi = vaddq_f32(vld1q_f32(crow + 4), hi);
      }
      vst1q_f32(crow, lo);
      vst1q_f32(crow + 4, hi);
    }
    return;
  }
  alignas(16) float tile[kMR][kNR];
  for (std::size_t i = 0; i < kMR; ++i) {
    vst1q_f32(tile[i], acc[i][0]);
    vst1q_f32(tile[i] + 4, acc[i][1]);
  }
  fold_tile(tile, alpha, beta, first_kblock, c, ldc, rows, cols);
}

#endif  // ISA

}  // namespace

const char* simd_kernel_isa() { return OMNIBOOST_SIMD_ISA; }

void gemm_simd_kernel(bool trans_a, bool trans_b, std::size_t m,
                      std::size_t n, std::size_t k, float alpha,
                      const float* a, std::size_t lda, const float* b,
                      std::size_t ldb, float beta, float* c,
                      std::size_t ldc) {
  blocked_gemm<SimdTile, kMC, kKC, kNC>(trans_a, trans_b, m, n, k, alpha, a,
                                        lda, b, ldb, beta, c, ldc);
}

#else  // !OMNIBOOST_SIMD_KERNELS — no ISA section on this target/compiler

const char* simd_kernel_isa() { return "none"; }

void gemm_simd_kernel(bool, bool, std::size_t, std::size_t, std::size_t,
                      float, const float*, std::size_t, const float*,
                      std::size_t, float, float*, std::size_t) {
  // Unreachable: gemm_simd() routes to tensor::gemm when
  // simd_kernel_isa() is "none".
}

#endif  // OMNIBOOST_SIMD_KERNELS

}  // namespace omniboost::tensor::detail

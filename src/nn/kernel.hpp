#pragma once
/// \file kernel.hpp
/// Kernel selection for the compute-heavy layers (Conv2d, Linear) and the
/// inference GELU.
///
/// Three interchangeable lowerings exist for each conv/linear layer:
///  * kReference — the original naive nested loops. Bit-frozen: this path
///    is what the paper-reproduction campaigns ran, so it must never change
///    numerically ({kernel = reference} reproduces the seed search
///    bit-for-bit; pinned by tests/nn_kernel_test.cpp).
///  * kGemm — im2col + cache-blocked GEMM (tensor/gemm.hpp). Faster, and
///    deterministic run-to-run, but its fixed summation order differs from
///    the reference, so outputs match within float rounding (<= 1e-6 on the
///    estimator's value ranges), not bitwise.
///  * kSimd — the same im2col lowering with the GEMM calls routed to the
///    runtime-dispatched SIMD micro-kernels (tensor/simd.hpp): 6x16 AVX2
///    FMA tiles on x86-64, 4x8 NEON on aarch64, selected via cpuid. On a
///    host without the ISA the layer math silently degrades to kGemm
///    (identical contract); resolve_kernel/kernel_resolution_note expose
///    the downgrade so front-ends can report it instead of guessing.
///
/// GELU has two: kReference evaluates the exact scalar (std::tanh); kGemm
/// and kSimd share one auto-vectorized loop with a rational tanh, within
/// 1e-6 * max(1, |x|) of it. The kind only matters in inference: GELU's
/// training forward and backward are exact under every kind, so training
/// under kGemm/kSimd differs from kReference only through the conv/linear
/// lowerings.
///
/// Layers capture the process-wide default at construction time
/// (set_default_kernel) and can be switched per instance afterwards via
/// Module::set_kernel, which containers propagate recursively.

#include <string>

namespace omniboost::nn {

enum class KernelKind {
  kReference,  ///< naive nested loops (the paper path, bit-frozen)
  kGemm,       ///< im2col + blocked GEMM lowering (default)
  kSimd,       ///< im2col + runtime-dispatched SIMD GEMM (tensor/simd.hpp)
};

/// Process-wide kernel default picked up by layer constructors. Starts as
/// kGemm. Not thread-safe against concurrent set_default_kernel — set it
/// once at startup (the CLI's --kernel flag), before building networks.
KernelKind default_kernel();
void set_default_kernel(KernelKind kind);

/// "reference" / "gemm" / "simd".
const char* kernel_name(KernelKind kind);

/// Parses "reference" / "gemm" / "simd"; throws std::invalid_argument
/// otherwise.
KernelKind parse_kernel_name(const std::string& name);

/// The kernel that will actually serve `requested` on this host: kSimd
/// degrades to kGemm when tensor::simd_supported() is false (kernels not
/// compiled in, or the running CPU lacks AVX2+FMA); everything else
/// resolves to itself. Pure query — layers need no special handling
/// (tensor::gemm_simd falls back internally), this exists so front-ends
/// can report the effective kernel.
KernelKind resolve_kernel(KernelKind requested);

/// Human-readable note when resolve_kernel(requested) != requested (e.g.
/// "kernel 'simd' unavailable on this host (no AVX2+FMA); using 'gemm'");
/// empty string when the request is served as-is.
std::string kernel_resolution_note(KernelKind requested);

}  // namespace omniboost::nn

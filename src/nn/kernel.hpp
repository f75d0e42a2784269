#pragma once
/// \file kernel.hpp
/// Kernel selection for the compute-heavy layers (Conv2d, Linear) and the
/// inference GELU.
///
/// Two interchangeable lowerings exist for each conv/linear layer:
///  * kReference — the original naive nested loops. Bit-frozen: this path
///    is what the paper-reproduction campaigns ran, so it must never change
///    numerically ({kernel = reference} reproduces the seed search
///    bit-for-bit; pinned by tests/nn_kernel_test.cpp).
///  * kGemm — im2col + cache-blocked GEMM (tensor/gemm.hpp). Faster, and
///    bit-identical run to run and host to host (an AVX2 host runs the
///    same arithmetic on 8-wide lanes), but its fixed summation order
///    differs from the reference, so outputs match within float rounding
///    (<= 1e-6 on the estimator's value ranges), not bitwise.
///
/// GELU has two as well: kReference evaluates the exact scalar
/// (std::tanh); kGemm runs one auto-vectorized loop with a rational tanh,
/// within 1e-6 * max(1, |x|) of it. The kind only matters in inference:
/// GELU's training forward and backward are exact under every kind, so
/// training under kGemm differs from kReference only through the
/// conv/linear lowerings.
///
/// Layers capture the process-wide default at construction time
/// (set_default_kernel) and can be switched per instance afterwards via
/// Module::set_kernel, which containers propagate recursively.

#include <string>

namespace omniboost::nn {

enum class KernelKind {
  kReference,  ///< naive nested loops (the paper path, bit-frozen)
  kGemm,       ///< im2col + blocked GEMM lowering (default)
};

/// Process-wide kernel default picked up by layer constructors. Starts as
/// kGemm. Not thread-safe against concurrent set_default_kernel — set it
/// once at startup (the CLI's --kernel flag), before building networks.
KernelKind default_kernel();
void set_default_kernel(KernelKind kind);

/// "reference" / "gemm".
const char* kernel_name(KernelKind kind);

/// Parses "reference" / "gemm"; throws std::invalid_argument otherwise.
KernelKind parse_kernel_name(const std::string& name);

}  // namespace omniboost::nn

#include "nn/kernel.hpp"

#include <stdexcept>

namespace omniboost::nn {

namespace {
KernelKind g_default_kernel = KernelKind::kGemm;
}  // namespace

KernelKind default_kernel() { return g_default_kernel; }

void set_default_kernel(KernelKind kind) { g_default_kernel = kind; }

const char* kernel_name(KernelKind kind) {
  switch (kind) {
    case KernelKind::kReference:
      return "reference";
    case KernelKind::kGemm:
      return "gemm";
  }
  return "?";
}

KernelKind parse_kernel_name(const std::string& name) {
  if (name == "reference") return KernelKind::kReference;
  if (name == "gemm") return KernelKind::kGemm;
  throw std::invalid_argument("unknown kernel '" + name +
                              "' (reference|gemm)");
}

}  // namespace omniboost::nn

#include <algorithm>
#include <cmath>

#include "nn/layers.hpp"
#include "util/require.hpp"

namespace omniboost::nn {

namespace {
// tanh-approximation constants (Hendrycks & Gimpel, 2016).
constexpr float kSqrt2OverPi = 0.7978845608028654f;
constexpr float kGeluCoef = 0.044715f;

/// Branch-free rational minimax tanh (the float approximation Eigen ships as
/// generic_fast_tanh_float): a degree-13 odd numerator over a degree-6 even
/// denominator on [-7.90531, 7.90531], outside which tanh rounds to +-1 in
/// float.
inline float rational_tanh(float x) {
  constexpr float kClamp = 7.90531110763549805f;
  x = std::max(std::min(x, kClamp), -kClamp);
  const float x2 = x * x;
  float p = -2.76076847742355e-16f;
  p = p * x2 + 2.00018790482477e-13f;
  p = p * x2 + -8.60467152213735e-11f;
  p = p * x2 + 5.12229709037114e-08f;
  p = p * x2 + 1.48572235717979e-05f;
  p = p * x2 + 6.37261928875436e-04f;
  p = p * x2 + 4.89352455891786e-03f;
  float q = 1.19825839466702e-06f;
  q = q * x2 + 1.18534705686654e-04f;
  q = q * x2 + 2.26843463243900e-03f;
  q = q * x2 + 4.89352518554385e-03f;
  return x * p / q;
}

/// GELU::value with rational_tanh for std::tanh: within
/// 2.4e-7 * max(1, |x|) of it on [-20, 20] (tests/nn_kernel_test.cpp
/// bounds it at 1e-6). A NaN input stays NaN through the leading x factor.
inline float gelu_fast(float x) {
  const float inner = kSqrt2OverPi * (x + kGeluCoef * x * x * x);
  return 0.5f * x * (1.0f + rational_tanh(inner));
}
}  // namespace

float GELU::value(float x) {
  const float inner = kSqrt2OverPi * (x + kGeluCoef * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(inner));
}

float GELU::derivative(float x) {
  const float x3 = x * x * x;
  const float inner = kSqrt2OverPi * (x + kGeluCoef * x3);
  const float t = std::tanh(inner);
  const float sech2 = 1.0f - t * t;
  const float dinner = kSqrt2OverPi * (1.0f + 3.0f * kGeluCoef * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * sech2 * dinner;
}

Tensor GELU::forward(const Tensor& x) {
  input_ = training() ? x : Tensor();
  Tensor y = x;
  float* v = y.data();
  const std::size_t n = y.size();
  // One plain loop per path (no std::function, no branch in the body), so
  // the compiler can vectorize the rational one; see CMakeLists.txt.
  if (training() || kernel_kind_ == KernelKind::kReference) {
    for (std::size_t i = 0; i < n; ++i) v[i] = value(v[i]);
  } else {
    for (std::size_t i = 0; i < n; ++i) v[i] = gelu_fast(v[i]);
  }
  return y;
}

Tensor GELU::backward(const Tensor& grad_out) {
  OB_REQUIRE(!input_.empty(), "GELU::backward before forward");
  OB_REQUIRE(grad_out.shape() == input_.shape(),
             "GELU::backward: grad shape mismatch");
  Tensor gx(grad_out.shape());
  for (std::size_t i = 0; i < gx.size(); ++i)
    gx[i] = grad_out[i] * derivative(input_[i]);
  return gx;
}

Tensor ReLU::forward(const Tensor& x) {
  input_ = training() ? x : Tensor();
  Tensor y = x;
  float* v = y.data();
  for (std::size_t i = 0; i < y.size(); ++i) v[i] = v[i] > 0.0f ? v[i] : 0.0f;
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  OB_REQUIRE(!input_.empty(), "ReLU::backward before forward");
  OB_REQUIRE(grad_out.shape() == input_.shape(),
             "ReLU::backward: grad shape mismatch");
  Tensor gx(grad_out.shape());
  for (std::size_t i = 0; i < gx.size(); ++i)
    gx[i] = input_[i] > 0.0f ? grad_out[i] : 0.0f;
  return gx;
}

}  // namespace omniboost::nn

#include <algorithm>
#include <cmath>

#include "nn/epilogue.hpp"
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

/// The tanh argument of value(): sqrt(2/pi) * (x + c*x*x*x).
inline float value_inner(float x) {
  return kSqrt2OverPi * (x + kGeluCoef * x * x * x);
}

/// The tanh argument of derivative(), rounded as c*(x*x*x): it differs from
/// value_inner(x) in the last bit for some x.
inline float derivative_inner(float x) {
  const float x3 = x * x * x;
  return kSqrt2OverPi * (x + kGeluCoef * x3);
}

/// GELU given t = tanh(value_inner(x)) (or its rational approximation).
inline float gelu_from_tanh(float x, float t) { return 0.5f * x * (1.0f + t); }

/// d GELU / dx given t = tanh(derivative_inner(x)).
inline float derivative_from_tanh(float x, float t) {
  const float sech2 = 1.0f - t * t;
  const float dinner = kSqrt2OverPi * (1.0f + 3.0f * kGeluCoef * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * sech2 * dinner;
}

/// GELU::value with rational_tanh for std::tanh: within
/// 2.4e-7 * max(1, |x|) of it on [-20, 20] (tests/nn_kernel_test.cpp
/// bounds it at 1e-6). A NaN input stays NaN through the leading x factor.
inline float gelu_fast(float x) {
  return gelu_from_tanh(x, rational_tanh(value_inner(x)));
}
}  // namespace

float GELU::value(float x) {
  return gelu_from_tanh(x, std::tanh(value_inner(x)));
}

float GELU::derivative(float x) {
  return derivative_from_tanh(x, std::tanh(derivative_inner(x)));
}

Tensor GELU::forward(const Tensor& x) {
  Tensor y = x;
  float* v = y.data();
  const std::size_t n = y.size();
  if (training()) {
    // value() and derivative() per element, sharing one tanh wherever the
    // two rounded tanh arguments agree (about 95% of inputs); where they
    // differ, derivative() gets its own, so both stay bit-exact.
    if (slope_.shape() != x.shape()) slope_ = Tensor(x.shape());
    float* d = slope_.data();
    for (std::size_t i = 0; i < n; ++i) {
      const float xi = v[i];
      const float inner = value_inner(xi);
      const float t = std::tanh(inner);
      const float dinner = derivative_inner(xi);
      d[i] = derivative_from_tanh(xi, dinner == inner ? t : std::tanh(dinner));
      v[i] = gelu_from_tanh(xi, t);
    }
    return y;
  }
  slope_ = Tensor();
  // One plain loop per path (no std::function, no branch in the body), so
  // the compiler can vectorize the rational one; see CMakeLists.txt.
  if (kernel_kind_ == KernelKind::kReference) {
    for (std::size_t i = 0; i < n; ++i) v[i] = value(v[i]);
  } else {
    for (std::size_t i = 0; i < n; ++i) v[i] = gelu_fast(v[i]);
  }
  return y;
}

Tensor GELU::backward(const Tensor& grad_out) {
  OB_REQUIRE(!slope_.empty(), "GELU::backward before forward");
  OB_REQUIRE(grad_out.shape() == slope_.shape(),
             "GELU::backward: grad shape mismatch");
  Tensor gx(grad_out.shape());
  for (std::size_t i = 0; i < gx.size(); ++i)
    gx[i] = grad_out[i] * slope_[i];
  return gx;
}

void detail::bias_bn_gelu(const float* src, float* dst, std::size_t n,
                          const float* bias, BatchNorm2d::Affine bn) {
  // The layered path's three loops (conv bias, BatchNorm2d::forward,
  // GELU::forward) composed element by element: the same float operations
  // in the same order, so the result is bit-identical.
  if (bias != nullptr) {
    const float b = *bias;
    for (std::size_t i = 0; i < n; ++i)
      dst[i] = gelu_fast(bn.apply(src[i] + b));
  } else {
    for (std::size_t i = 0; i < n; ++i) dst[i] = gelu_fast(bn.apply(src[i]));
  }
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

#include <cmath>

#include "nn/layers.hpp"
#include "tensor/gemm.hpp"
#include "util/require.hpp"

namespace omniboost::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, bool bias)
    : in_f_(in_features),
      out_f_(out_features),
      has_bias_(bias),
      weight_({out_features, in_features}),
      bias_({out_features}) {
  OB_REQUIRE(in_features > 0 && out_features > 0,
             "Linear: feature counts must be positive");
}

std::vector<Param*> Linear::params() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

void Linear::init(util::Rng& rng) {
  const double std = std::sqrt(2.0 / static_cast<double>(in_f_));
  for (std::size_t i = 0; i < weight_.value.size(); ++i)
    weight_.value[i] = static_cast<float>(rng.normal(0.0, std));
  bias_.value.zero();
}

Tensor Linear::forward(const Tensor& x) {
  OB_REQUIRE(x.rank() == 2, "Linear: input must be (N, F)");
  OB_REQUIRE(x.extent(1) == in_f_, "Linear: feature mismatch");
  if (training())
    input_ = x;
  else
    input_ = Tensor();

  const std::size_t n = x.extent(0);
  Tensor y({n, out_f_});
  const float* xd = x.data();
  const float* wd = weight_.value.data();
  float* yd = y.data();

  if (kernel_kind_ != KernelKind::kReference) {
    // Y (n x out) = X (n x in) * W^T (in x out), then the bias row.
    tensor::gemm(false, true, n, out_f_, in_f_, 1.0f, xd, in_f_, wd, in_f_,
                 0.0f, yd, out_f_);
    if (has_bias_) {
      for (std::size_t b = 0; b < n; ++b) {
        float* yrow = yd + b * out_f_;
        for (std::size_t o = 0; o < out_f_; ++o) yrow[o] += bias_.value[o];
      }
    }
    return y;
  }

  // Reference path (bit-frozen, unchanged from the seed tree).
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t o = 0; o < out_f_; ++o) {
      float acc = has_bias_ ? bias_.value[o] : 0.0f;
      const float* wrow = wd + o * in_f_;
      const float* xrow = xd + b * in_f_;
      for (std::size_t i = 0; i < in_f_; ++i) acc += wrow[i] * xrow[i];
      yd[b * out_f_ + o] = acc;
    }
  }
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  OB_REQUIRE(!input_.empty(), "Linear::backward before forward");
  const std::size_t n = input_.extent(0);
  OB_REQUIRE(grad_out.extent(0) == n && grad_out.extent(1) == out_f_,
             "Linear::backward: grad shape mismatch");

  Tensor gx({n, in_f_});
  const float* xd = input_.data();
  const float* wd = weight_.value.data();
  const float* gd = grad_out.data();
  float* gxd = gx.data();
  float* gwd = weight_.grad.data();
  float* gbd = bias_.grad.data();

  if (kernel_kind_ != KernelKind::kReference) {
    // gX (n x in)  = gY (n x out)   * W (out x in)
    // gW (out x in) += gY^T (out x n) * X (n x in)
    tensor::gemm(false, false, n, in_f_, out_f_, 1.0f, gd, out_f_, wd, in_f_,
                 0.0f, gxd, in_f_);
    tensor::gemm(true, false, out_f_, in_f_, n, 1.0f, gd, out_f_, xd, in_f_,
                 1.0f, gwd, in_f_);
    if (has_bias_) {
      for (std::size_t b = 0; b < n; ++b) {
        const float* grow = gd + b * out_f_;
        for (std::size_t o = 0; o < out_f_; ++o) gbd[o] += grow[o];
      }
    }
    return gx;
  }

  // Reference path (bit-frozen, unchanged from the seed tree).
  for (std::size_t b = 0; b < n; ++b) {
    const float* xrow = xd + b * in_f_;
    const float* grow = gd + b * out_f_;
    float* gxrow = gxd + b * in_f_;
    for (std::size_t o = 0; o < out_f_; ++o) {
      const float g = grow[o];
      if (has_bias_) gbd[o] += g;
      const float* wrow = wd + o * in_f_;
      float* gwrow = gwd + o * in_f_;
      for (std::size_t i = 0; i < in_f_; ++i) {
        gwrow[i] += g * xrow[i];
        gxrow[i] += g * wrow[i];
      }
    }
  }
  return gx;
}

}  // namespace omniboost::nn

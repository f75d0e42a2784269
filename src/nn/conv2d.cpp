#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/epilogue.hpp"
#include "nn/layers.hpp"
#include "tensor/gemm.hpp"
#include "util/require.hpp"

namespace omniboost::nn {

Conv2d::Conv2d(std::size_t in_ch, std::size_t out_ch, std::size_t kernel,
               std::size_t stride, std::size_t padding, bool bias)
    : in_ch_(in_ch),
      out_ch_(out_ch),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(bias),
      weight_({out_ch, in_ch, kernel, kernel}),
      bias_({out_ch}) {
  OB_REQUIRE(in_ch > 0 && out_ch > 0, "Conv2d: channels must be positive");
  OB_REQUIRE(kernel > 0 && stride > 0, "Conv2d: kernel/stride must be >= 1");
}

std::vector<Param*> Conv2d::params() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

void Conv2d::init(util::Rng& rng) {
  // Kaiming-normal for GELU/ReLU-style activations: std = sqrt(2 / fan_in).
  const double fan_in =
      static_cast<double>(in_ch_) * static_cast<double>(kernel_ * kernel_);
  const double std = std::sqrt(2.0 / fan_in);
  for (std::size_t i = 0; i < weight_.value.size(); ++i)
    weight_.value[i] = static_cast<float>(rng.normal(0.0, std));
  bias_.value.zero();
}

Tensor Conv2d::output_for(const Tensor& x) {
  OB_REQUIRE(x.rank() == 4, "Conv2d: input must be NCHW");
  OB_REQUIRE(x.extent(1) == in_ch_, "Conv2d: channel mismatch");
  // Copy-assign, not a fresh copy: a training step reuses the buffer.
  if (training())
    input_ = x;
  else
    input_ = Tensor();

  const std::size_t h = x.extent(2), w = x.extent(3);
  OB_REQUIRE(h + 2 * padding_ >= kernel_ && w + 2 * padding_ >= kernel_,
             "Conv2d: input smaller than kernel");
  const std::size_t oh = (h + 2 * padding_ - kernel_) / stride_ + 1;
  const std::size_t ow = (w + 2 * padding_ - kernel_) / stride_ + 1;
  return Tensor({x.extent(0), out_ch_, oh, ow});
}

Tensor Conv2d::forward(const Tensor& x) {
  Tensor y = output_for(x);
  return kernel_kind_ == KernelKind::kReference
             ? forward_reference(x, std::move(y))
             : forward_gemm(x, std::move(y), nullptr);
}

Tensor Conv2d::forward_bn_gelu(const Tensor& x, const BatchNorm2d& bn) {
  OB_REQUIRE(kernel_kind_ != KernelKind::kReference && !training() &&
                 !bn.training(),
             "Conv2d::forward_bn_gelu: inference under kGemm only");
  OB_REQUIRE(bn.channels() == out_ch_, "BatchNorm2d: channel mismatch");
  return forward_gemm(x, output_for(x), &bn);
}

// The bit-frozen paper path: weight-stationary nested loops, unchanged from
// the seed tree (the {kernel = reference} campaigns reproduce bit-for-bit).
Tensor Conv2d::forward_reference(const Tensor& x, Tensor y) const {
  const std::size_t n = x.extent(0), h = x.extent(2), w = x.extent(3);
  const std::size_t oh = y.extent(2), ow = y.extent(3);
  const float* xd = x.data();
  const float* wd = weight_.value.data();
  float* yd = y.data();

  if (has_bias_) {
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t oc = 0; oc < out_ch_; ++oc) {
        float* yplane = yd + (b * out_ch_ + oc) * oh * ow;
        const float bias = bias_.value[oc];
        for (std::size_t i = 0; i < oh * ow; ++i) yplane[i] = bias;
      }
    }
  }
  // Batch innermost (between kernel tap and output rows): the weight load
  // and the column-bounds arithmetic of one (oc, ic, ky, kx) tap are hoisted
  // across all N samples, so batched forwards (predict_batch, the MCTS
  // expansion waves) pay them once per tap instead of once per sample.
  // For n == 1 the work is identical to the sample-outer order.
  for (std::size_t oc = 0; oc < out_ch_; ++oc) {
    for (std::size_t ic = 0; ic < in_ch_; ++ic) {
      const float* wplane = wd + (oc * in_ch_ + ic) * kernel_ * kernel_;
      for (std::size_t ky = 0; ky < kernel_; ++ky) {
        for (std::size_t kx = 0; kx < kernel_; ++kx) {
          const float wv = wplane[ky * kernel_ + kx];
          if (wv == 0.0f) continue;
          const auto off_x = static_cast<std::ptrdiff_t>(kx) -
                             static_cast<std::ptrdiff_t>(padding_);
          std::size_t lo, hi;
          tensor::conv_tap_range(ow, w, stride_, off_x, lo, hi);
          for (std::size_t b = 0; b < n; ++b) {
            const float* xplane = xd + (b * in_ch_ + ic) * h * w;
            float* yplane = yd + (b * out_ch_ + oc) * oh * ow;
            for (std::size_t oy = 0; oy < oh; ++oy) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                  static_cast<std::ptrdiff_t>(padding_);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              const float* xrow =
                  xplane + static_cast<std::size_t>(iy) * w;
              float* yrow = yplane + oy * ow;
              if (stride_ == 1) {
                const float* xs = xrow + off_x;
                for (std::size_t ox = lo; ox < hi; ++ox)
                  yrow[ox] += wv * xs[ox];
              } else {
                for (std::size_t ox = lo; ox < hi; ++ox)
                  yrow[ox] +=
                      wv * xrow[static_cast<std::size_t>(
                               static_cast<std::ptrdiff_t>(ox * stride_) +
                               off_x)];
              }
            }
          }
        }
      }
    }
  }
  return y;
}

// im2col + GEMM lowering, batched: the whole batch is lowered into ONE
// column matrix cols (K x n*P), K = in_ch*k*k and P = oh*ow, with sample b
// owning columns [b*P, (b+1)*P). A single GEMM against the weight matrix
// then serves the entire batch — the blocked kernel amortizes its packing
// over the full expansion wave. Its (out_ch x n*P) product is laid out as
// NCHW only when n == 1, so there the GEMM writes y itself; otherwise it
// writes scratch. One per-channel epilogue then moves each product row into
// y with the bias added (in place at n == 1) — or, for a fused block, with
// bn's inference transform and the GELU applied as well.
Tensor Conv2d::forward_gemm(const Tensor& x, Tensor y,
                            const BatchNorm2d* bn) const {
  const std::size_t n = x.extent(0), h = x.extent(2), w = x.extent(3);
  const std::size_t patch = in_ch_ * kernel_ * kernel_;  // GEMM K
  const std::size_t pixels = y.extent(2) * y.extent(3);  // per-sample columns
  const std::size_t width = n * pixels;                  // GEMM N

  // Reused scratch. thread_local, not members: layer instances are single-
  // threaded by the module contract, but pool workers run their own layer
  // clones concurrently and must not share buffers.
  static thread_local std::vector<float> cols;
  static thread_local std::vector<float> product;
  cols.resize(patch * width);
  for (std::size_t b = 0; b < n; ++b)
    tensor::im2col(x.data() + b * in_ch_ * h * w, in_ch_, h, w, kernel_,
                   stride_, padding_, cols.data() + b * pixels, width);

  float* out = y.data();
  if (n > 1) {
    product.resize(out_ch_ * width);
    out = product.data();
  }
  tensor::gemm(false, false, out_ch_, width, patch, 1.0f, weight_.value.data(),
               patch, cols.data(), width, 0.0f, out, width);

  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      const float* src = out + oc * width + b * pixels;
      float* dst = y.data() + (b * out_ch_ + oc) * pixels;
      if (bn != nullptr) {
        detail::bias_bn_gelu(src, dst, pixels,
                             has_bias_ ? bias_.value.data() + oc : nullptr,
                             bn->inference_affine(oc));
      } else if (has_bias_) {
        const float bias = bias_.value[oc];
        for (std::size_t i = 0; i < pixels; ++i) dst[i] = src[i] + bias;
      } else if (src != dst) {
        std::copy(src, src + pixels, dst);
      }
    }
  }
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  OB_REQUIRE(!input_.empty(), "Conv2d::backward before forward");
  const std::size_t n = input_.extent(0);
  OB_REQUIRE(grad_out.extent(0) == n && grad_out.extent(1) == out_ch_,
             "Conv2d::backward: grad shape mismatch");
  return kernel_kind_ == KernelKind::kReference ? backward_reference(grad_out)
                                                : backward_gemm(grad_out);
}

// The bit-frozen paper path (unchanged from the seed tree).
Tensor Conv2d::backward_reference(const Tensor& grad_out) {
  const Tensor& x = input_;
  const std::size_t n = x.extent(0), h = x.extent(2), w = x.extent(3);
  const std::size_t oh = grad_out.extent(2), ow = grad_out.extent(3);

  Tensor gx(x.shape());
  const float* xd = x.data();
  const float* wd = weight_.value.data();
  const float* gd = grad_out.data();
  float* gxd = gx.data();
  float* gwd = weight_.grad.data();
  float* gbd = bias_.grad.data();

  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      const float* gplane = gd + (b * out_ch_ + oc) * oh * ow;
      if (has_bias_) {
        float acc = 0.0f;
        for (std::size_t i = 0; i < oh * ow; ++i) acc += gplane[i];
        gbd[oc] += acc;
      }
      for (std::size_t ic = 0; ic < in_ch_; ++ic) {
        const float* xplane = xd + (b * in_ch_ + ic) * h * w;
        float* gxplane = gxd + (b * in_ch_ + ic) * h * w;
        const float* wplane = wd + (oc * in_ch_ + ic) * kernel_ * kernel_;
        float* gwplane = gwd + (oc * in_ch_ + ic) * kernel_ * kernel_;
        for (std::size_t ky = 0; ky < kernel_; ++ky) {
          for (std::size_t kx = 0; kx < kernel_; ++kx) {
            const float wv = wplane[ky * kernel_ + kx];
            const auto off_x = static_cast<std::ptrdiff_t>(kx) -
                               static_cast<std::ptrdiff_t>(padding_);
            std::size_t lo, hi;
            tensor::conv_tap_range(ow, w, stride_, off_x, lo, hi);
            float gw_acc = 0.0f;
            for (std::size_t oy = 0; oy < oh; ++oy) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                  static_cast<std::ptrdiff_t>(padding_);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              const float* xrow = xplane + static_cast<std::size_t>(iy) * w;
              float* gxrow = gxplane + static_cast<std::size_t>(iy) * w;
              const float* grow = gplane + oy * ow;
              if (stride_ == 1) {
                const float* xs = xrow + off_x;
                float* gxs = gxrow + off_x;
                for (std::size_t ox = lo; ox < hi; ++ox) {
                  const float g = grow[ox];
                  gw_acc += g * xs[ox];
                  gxs[ox] += g * wv;
                }
              } else {
                for (std::size_t ox = lo; ox < hi; ++ox) {
                  const float g = grow[ox];
                  const auto ix = static_cast<std::size_t>(
                      static_cast<std::ptrdiff_t>(ox * stride_) + off_x);
                  gw_acc += g * xrow[ix];
                  gxrow[ix] += g * wv;
                }
              }
            }
            gwplane[ky * kernel_ + kx] += gw_acc;
          }
        }
      }
    }
  }
  return gx;
}

// GEMM lowering of both gradients, per sample b:
//   gW   += gy_b (out_ch x P) * cols_b^T (P x K)          [accumulating GEMM]
//   gcols = W^T  (K x out_ch) * gy_b    (out_ch x P)      [then col2im -> gx]
// with K = in_ch*k*k and P = oh*ow. cols_b is recomputed from the cached
// input (cheaper than caching it for the whole batch).
Tensor Conv2d::backward_gemm(const Tensor& grad_out) {
  const Tensor& x = input_;
  const std::size_t n = x.extent(0), h = x.extent(2), w = x.extent(3);
  const std::size_t oh = grad_out.extent(2), ow = grad_out.extent(3);
  const std::size_t patch = in_ch_ * kernel_ * kernel_;
  const std::size_t pixels = oh * ow;
  const bool identity_cols =
      kernel_ == 1 && stride_ == 1 && padding_ == 0;

  Tensor gx(x.shape());
  std::vector<float> cols;
  if (!identity_cols) cols.resize(patch * pixels);
  std::vector<float> gcols(patch * pixels);
  const float* wd = weight_.value.data();
  float* gwd = weight_.grad.data();
  float* gbd = bias_.grad.data();

  for (std::size_t b = 0; b < n; ++b) {
    const float* xplane = x.data() + b * in_ch_ * h * w;
    const float* gplane = grad_out.data() + b * out_ch_ * pixels;
    float* gxplane = gx.data() + b * in_ch_ * h * w;

    if (has_bias_) {
      for (std::size_t oc = 0; oc < out_ch_; ++oc) {
        const float* grow = gplane + oc * pixels;
        float acc = 0.0f;
        for (std::size_t i = 0; i < pixels; ++i) acc += grow[i];
        gbd[oc] += acc;
      }
    }

    const float* colp = xplane;
    if (!identity_cols) {
      tensor::im2col(xplane, in_ch_, h, w, kernel_, stride_, padding_,
                     cols.data(), pixels);
      colp = cols.data();
    }
    tensor::gemm(false, true, out_ch_, patch, pixels, 1.0f, gplane, pixels,
                 colp, pixels, 1.0f, gwd, patch);
    if (identity_cols) {
      tensor::gemm(true, false, patch, pixels, out_ch_, 1.0f, wd, patch,
                   gplane, pixels, 0.0f, gxplane, pixels);
    } else {
      tensor::gemm(true, false, patch, pixels, out_ch_, 1.0f, wd, patch,
                   gplane, pixels, 0.0f, gcols.data(), pixels);
      tensor::col2im(gcols.data(), in_ch_, h, w, kernel_, stride_, padding_,
                     gxplane);
    }
  }
  return gx;
}

}  // namespace omniboost::nn

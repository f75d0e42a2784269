#include "nn/layers.hpp"
#include "util/require.hpp"

namespace omniboost::nn {

MaxPool2d::MaxPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {
  OB_REQUIRE(kernel > 0, "MaxPool2d: kernel must be >= 1");
}

Tensor MaxPool2d::forward(const Tensor& x) {
  OB_REQUIRE(x.rank() == 4, "MaxPool2d: input must be NCHW");
  const std::size_t n = x.extent(0), c = x.extent(1), h = x.extent(2),
                    w = x.extent(3);
  OB_REQUIRE(h >= kernel_ && w >= kernel_,
             "MaxPool2d: input smaller than kernel");
  const std::size_t oh = (h - kernel_) / stride_ + 1;
  const std::size_t ow = (w - kernel_) / stride_ + 1;

  in_shape_ = x.shape();
  Tensor y({n, c, oh, ow});
  const bool keep = training();
  argmax_.assign(keep ? y.size() : 0, 0);

  const float* xd = x.data();
  float* yd = y.data();
  std::size_t o = 0;
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = xd + (b * c + ch) * h * w;
      const std::size_t plane_base = (b * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++o) {
          float best = plane[(oy * stride_) * w + ox * stride_];
          std::size_t best_off = (oy * stride_) * w + ox * stride_;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              const std::size_t off =
                  (oy * stride_ + ky) * w + (ox * stride_ + kx);
              if (plane[off] > best) {
                best = plane[off];
                best_off = off;
              }
            }
          }
          yd[o] = best;
          if (keep) argmax_[o] = plane_base + best_off;
        }
      }
    }
  }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  OB_REQUIRE(!argmax_.empty(), "MaxPool2d::backward before forward");
  OB_REQUIRE(grad_out.size() == argmax_.size(),
             "MaxPool2d::backward: grad size mismatch");
  Tensor gx(in_shape_);
  for (std::size_t o = 0; o < argmax_.size(); ++o)
    gx[argmax_[o]] += grad_out[o];
  return gx;
}

Tensor GlobalAvgPool::forward(const Tensor& x) {
  OB_REQUIRE(x.rank() == 4, "GlobalAvgPool: input must be NCHW");
  in_shape_ = x.shape();
  const std::size_t n = x.extent(0), c = x.extent(1),
                    plane = x.extent(2) * x.extent(3);
  Tensor y({n, c});
  const float* xd = x.data();
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      double s = 0.0;
      const float* p = xd + (b * c + ch) * plane;
      for (std::size_t i = 0; i < plane; ++i) s += p[i];
      y.at({b, ch}) = static_cast<float>(s / static_cast<double>(plane));
    }
  }
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  OB_REQUIRE(!in_shape_.empty(), "GlobalAvgPool::backward before forward");
  const std::size_t n = in_shape_[0], c = in_shape_[1],
                    plane = in_shape_[2] * in_shape_[3];
  OB_REQUIRE(grad_out.rank() == 2 && grad_out.extent(0) == n &&
                 grad_out.extent(1) == c,
             "GlobalAvgPool::backward: grad shape mismatch");
  Tensor gx(in_shape_);
  float* gxd = gx.data();
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float g = grad_out.at({b, ch}) * inv;
      float* p = gxd + (b * c + ch) * plane;
      for (std::size_t i = 0; i < plane; ++i) p[i] = g;
    }
  }
  return gx;
}

}  // namespace omniboost::nn

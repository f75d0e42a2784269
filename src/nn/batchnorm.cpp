#include <cmath>

#include "nn/layers.hpp"
#include "util/require.hpp"

namespace omniboost::nn {

BatchNorm2d::BatchNorm2d(std::size_t channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_({channels}),
      beta_({channels}),
      running_mean_({channels}),
      running_var_({channels}, 1.0f) {
  OB_REQUIRE(channels > 0, "BatchNorm2d: channels must be positive");
  gamma_.value.fill(1.0f);
}

std::vector<Param*> BatchNorm2d::params() { return {&gamma_, &beta_}; }

void BatchNorm2d::init(util::Rng& /*rng*/) {
  gamma_.value.fill(1.0f);
  beta_.value.zero();
  running_mean_.zero();
  running_var_.fill(1.0f);
}

Tensor BatchNorm2d::forward(const Tensor& x) {
  OB_REQUIRE(x.rank() == 4, "BatchNorm2d: input must be NCHW");
  OB_REQUIRE(x.extent(1) == channels_, "BatchNorm2d: channel mismatch");
  const std::size_t n = x.extent(0), h = x.extent(2), w = x.extent(3);
  const std::size_t plane = h * w;
  const std::size_t count = n * plane;

  Tensor y(x.shape());
  const float* xd = x.data();
  float* yd = y.data();

  if (training_) {
    OB_REQUIRE(count > 1, "BatchNorm2d: training batch too small");
    xhat_ = Tensor(x.shape());
    inv_std_ = Tensor({channels_});
    batch_count_ = count;

    for (std::size_t c = 0; c < channels_; ++c) {
      double sum = 0.0, sq = 0.0;
      for (std::size_t b = 0; b < n; ++b) {
        const float* p = xd + ((b * channels_ + c) * plane);
        for (std::size_t i = 0; i < plane; ++i) {
          sum += p[i];
          sq += static_cast<double>(p[i]) * p[i];
        }
      }
      const double mean = sum / static_cast<double>(count);
      const double var =
          std::max(sq / static_cast<double>(count) - mean * mean, 0.0);
      const float istd = static_cast<float>(1.0 / std::sqrt(var + eps_));
      inv_std_[c] = istd;

      running_mean_[c] = (1.0f - momentum_) * running_mean_[c] +
                         momentum_ * static_cast<float>(mean);
      running_var_[c] = (1.0f - momentum_) * running_var_[c] +
                        momentum_ * static_cast<float>(var);

      const float g = gamma_.value[c], bta = beta_.value[c];
      float* xh = xhat_.data();
      for (std::size_t b = 0; b < n; ++b) {
        const std::size_t base = (b * channels_ + c) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          const float xn =
              (xd[base + i] - static_cast<float>(mean)) * istd;
          xh[base + i] = xn;
          yd[base + i] = g * xn + bta;
        }
      }
    }
  } else {
    for (std::size_t c = 0; c < channels_; ++c) {
      const Affine a = inference_affine(c);
      for (std::size_t b = 0; b < n; ++b) {
        const std::size_t base = (b * channels_ + c) * plane;
        for (std::size_t i = 0; i < plane; ++i)
          yd[base + i] = a.apply(xd[base + i]);
      }
    }
  }
  return y;
}

BatchNorm2d::Affine BatchNorm2d::inference_affine(std::size_t c) const {
  return {running_mean_[c], 1.0f / std::sqrt(running_var_[c] + eps_),
          gamma_.value[c], beta_.value[c]};
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  OB_REQUIRE(!xhat_.empty(), "BatchNorm2d::backward before training forward");
  OB_REQUIRE(grad_out.shape() == xhat_.shape(),
             "BatchNorm2d::backward: grad shape mismatch");
  const std::size_t n = grad_out.extent(0);
  const std::size_t plane = grad_out.extent(2) * grad_out.extent(3);
  const auto m = static_cast<float>(batch_count_);

  Tensor gx(grad_out.shape());
  const float* gd = grad_out.data();
  const float* xh = xhat_.data();
  float* gxd = gx.data();

  for (std::size_t c = 0; c < channels_; ++c) {
    // Standard BN backward:
    // dx = gamma * istd / m * (m*dy - sum(dy) - xhat * sum(dy*xhat))
    double sum_dy = 0.0, sum_dyxh = 0.0;
    for (std::size_t b = 0; b < n; ++b) {
      const std::size_t base = (b * channels_ + c) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        sum_dy += gd[base + i];
        sum_dyxh += static_cast<double>(gd[base + i]) * xh[base + i];
      }
    }
    gamma_.grad[c] += static_cast<float>(sum_dyxh);
    beta_.grad[c] += static_cast<float>(sum_dy);

    const float k = gamma_.value[c] * inv_std_[c] / m;
    const auto sdy = static_cast<float>(sum_dy);
    const auto sdyxh = static_cast<float>(sum_dyxh);
    for (std::size_t b = 0; b < n; ++b) {
      const std::size_t base = (b * channels_ + c) * plane;
      for (std::size_t i = 0; i < plane; ++i)
        gxd[base + i] =
            k * (m * gd[base + i] - sdy - xh[base + i] * sdyxh);
    }
  }
  return gx;
}

}  // namespace omniboost::nn

#include "nn/loss.hpp"

#include <cmath>

#include "util/require.hpp"

namespace omniboost::nn {

LossResult L1Loss::compute(const tensor::Tensor& pred,
                           const tensor::Tensor& target) const {
  OB_REQUIRE(pred.shape() == target.shape(), "L1Loss: shape mismatch");
  OB_REQUIRE(!pred.empty(), "L1Loss: empty input");
  LossResult r;
  r.grad = tensor::Tensor(pred.shape());
  const float inv = 1.0f / static_cast<float>(pred.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const float d = pred[i] - target[i];
    acc += std::fabs(d);
    r.grad[i] = (d > 0.0f ? 1.0f : (d < 0.0f ? -1.0f : 0.0f)) * inv;
  }
  r.value = static_cast<float>(acc * inv);
  return r;
}

LossResult MSELoss::compute(const tensor::Tensor& pred,
                            const tensor::Tensor& target) const {
  OB_REQUIRE(pred.shape() == target.shape(), "MSELoss: shape mismatch");
  OB_REQUIRE(!pred.empty(), "MSELoss: empty input");
  LossResult r;
  r.grad = tensor::Tensor(pred.shape());
  const float inv = 1.0f / static_cast<float>(pred.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const float d = pred[i] - target[i];
    acc += static_cast<double>(d) * d;
    r.grad[i] = 2.0f * d * inv;
  }
  r.value = static_cast<float>(acc * inv);
  return r;
}

}  // namespace omniboost::nn

#pragma once
/// \file loss.hpp
/// Regression losses. The paper trains the throughput estimator with L1 loss
/// ("L2 proved too aggressive"); both are provided so the ablation bench can
/// reproduce that comparison.

#include <utility>

#include "tensor/tensor.hpp"

namespace omniboost::nn {

/// Loss value plus gradient w.r.t. the predictions.
struct LossResult {
  float value = 0.0f;
  tensor::Tensor grad;  ///< same shape as predictions
};

/// Interface for element-wise regression criteria (mean-reduced).
class Loss {
 public:
  virtual ~Loss() = default;

  /// Computes mean loss over all elements and its gradient.
  /// Shapes of \p pred and \p target must match.
  virtual LossResult compute(const tensor::Tensor& pred,
                             const tensor::Tensor& target) const = 0;
};

/// Mean absolute error (the paper's training criterion).
class L1Loss final : public Loss {
 public:
  LossResult compute(const tensor::Tensor& pred,
                     const tensor::Tensor& target) const override;
};

/// Mean squared error (used by the L1-vs-L2 ablation).
class MSELoss final : public Loss {
 public:
  LossResult compute(const tensor::Tensor& pred,
                     const tensor::Tensor& target) const override;
};

}  // namespace omniboost::nn

#pragma once
/// \file optim.hpp
/// First-order optimizers over Module parameter lists.

#include <cstddef>
#include <vector>

#include "nn/module.hpp"

namespace omniboost::nn {

/// Interface: consumes accumulated gradients and updates parameter values.
class Optimizer {
 public:
  Optimizer(std::vector<Param*> params, float lr);
  virtual ~Optimizer() = default;

  /// Applies one update step from the currently-accumulated gradients.
  virtual void step() = 0;

  /// Clears gradients of all managed parameters.
  void zero_grad();

  /// Current learning rate (mutable so LR schedulers can drive it).
  float lr() const { return lr_; }
  void set_lr(float lr);

 protected:
  std::vector<Param*> params_;
  float lr_;
};

/// Adam (Kingma & Ba, 2015) at the paper's moments (beta1 0.9, beta2 0.999,
/// eps 1e-8) with optional decoupled weight decay.
class Adam final : public Optimizer {
 public:
  Adam(std::vector<Param*> params, float lr = 1e-3f,
       float weight_decay = 0.0f);
  void step() override;

 private:
  float weight_decay_;
  std::size_t t_ = 0;
  std::vector<tensor::Tensor> m_, v_;
};

}  // namespace omniboost::nn

#include "nn/optim.hpp"

#include <cmath>

#include "util/require.hpp"

namespace omniboost::nn {

Optimizer::Optimizer(std::vector<Param*> params, float lr)
    : params_(std::move(params)), lr_(lr) {
  OB_REQUIRE(!params_.empty(), "Optimizer: no parameters");
  for (Param* p : params_)
    OB_REQUIRE(p != nullptr, "Optimizer: null parameter");
  OB_REQUIRE(lr > 0.0f, "Optimizer: learning rate must be positive");
}

void Optimizer::zero_grad() {
  for (Param* p : params_) p->grad.zero();
}

void Optimizer::set_lr(float lr) {
  OB_REQUIRE(lr > 0.0f, "Optimizer::set_lr: learning rate must be positive");
  lr_ = lr;
}

Adam::Adam(std::vector<Param*> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params), lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Param* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  ++t_;
  const float bc1 =
      1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 =
      1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Param& p = *params_[k];
    for (std::size_t i = 0; i < p.value.size(); ++i) {
      const float g = p.grad[i];
      m_[k][i] = beta1_ * m_[k][i] + (1.0f - beta1_) * g;
      v_[k][i] = beta2_ * v_[k][i] + (1.0f - beta2_) * g * g;
      const float mhat = m_[k][i] / bc1;
      const float vhat = v_[k][i] / bc2;
      // Decoupled weight decay (AdamW-style).
      p.value[i] -= lr_ * (mhat / (std::sqrt(vhat) + eps_) +
                           weight_decay_ * p.value[i]);
    }
  }
}

}  // namespace omniboost::nn

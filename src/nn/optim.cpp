#include "nn/optim.hpp"

#include <cmath>

#include "util/require.hpp"

namespace omniboost::nn {

namespace {

constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEps = 1e-8f;

}  // namespace

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

Adam::Adam(std::vector<Param*> params, float lr, float weight_decay)
    : Optimizer(std::move(params), lr), weight_decay_(weight_decay) {
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
      1.0f - std::pow(kBeta1, static_cast<float>(t_));
  const float bc2 =
      1.0f - std::pow(kBeta2, static_cast<float>(t_));
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Param& p = *params_[k];
    for (std::size_t i = 0; i < p.value.size(); ++i) {
      const float g = p.grad[i];
      m_[k][i] = kBeta1 * m_[k][i] + (1.0f - kBeta1) * g;
      v_[k][i] = kBeta2 * v_[k][i] + (1.0f - kBeta2) * g * g;
      const float mhat = m_[k][i] / bc1;
      const float vhat = v_[k][i] / bc2;
      // Decoupled weight decay (AdamW-style).
      p.value[i] -= lr_ * (mhat / (std::sqrt(vhat) + kEps) +
                           weight_decay_ * p.value[i]);
    }
  }
}

}  // namespace omniboost::nn

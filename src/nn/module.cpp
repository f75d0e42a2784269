#include "nn/module.hpp"

#include "nn/layers.hpp"
#include "util/require.hpp"

namespace omniboost::nn {

namespace {

/// The Conv2d -> BatchNorm2d -> GELU run starting at layers[i] when
/// Conv2d::forward_bn_gelu can serve it: all three in inference mode, conv
/// and GELU on a non-reference kernel. Null otherwise.
Conv2d* fusable_block(const std::vector<std::unique_ptr<Module>>& layers,
                      std::size_t i) {
  if (i + 2 >= layers.size()) return nullptr;
  auto* conv = dynamic_cast<Conv2d*>(layers[i].get());
  if (conv == nullptr || conv->training() ||
      conv->kernel_kind() == KernelKind::kReference)
    return nullptr;
  const auto* bn = dynamic_cast<const BatchNorm2d*>(layers[i + 1].get());
  const auto* gelu = dynamic_cast<const GELU*>(layers[i + 2].get());
  if (bn == nullptr || bn->training() || gelu == nullptr ||
      gelu->training() || gelu->kernel_kind() == KernelKind::kReference)
    return nullptr;
  return conv;
}

}  // namespace

void Module::zero_grad() {
  for (Param* p : params()) p->grad.zero();
}

std::size_t Module::num_params() {
  std::size_t n = 0;
  for (Param* p : params()) n += p->value.size();
  return n;
}

Sequential& Sequential::add(std::unique_ptr<Module> m) {
  OB_REQUIRE(m != nullptr, "Sequential::add: null module");
  layers_.push_back(std::move(m));
  return *this;
}

Tensor Sequential::forward(const Tensor& x) {
  Tensor y = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (Conv2d* conv = fusable_block(layers_, i)) {
      y = conv->forward_bn_gelu(
          y, static_cast<const BatchNorm2d&>(*layers_[i + 1]));
      i += 2;
    } else {
      y = layers_[i]->forward(y);
    }
  }
  return y;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> out;
  for (auto& l : layers_)
    for (Param* p : l->params()) out.push_back(p);
  return out;
}

std::vector<Tensor*> Sequential::buffers() {
  std::vector<Tensor*> out;
  for (auto& l : layers_)
    for (Tensor* b : l->buffers()) out.push_back(b);
  return out;
}

void Sequential::set_training(bool training) {
  Module::set_training(training);
  for (auto& l : layers_) l->set_training(training);
}

void Sequential::set_kernel(KernelKind kind) {
  for (auto& l : layers_) l->set_kernel(kind);
}

void Sequential::init(util::Rng& rng) {
  for (auto& l : layers_) l->init(rng);
}

Module& Sequential::layer(std::size_t i) {
  OB_REQUIRE(i < layers_.size(), "Sequential::layer: index out of range");
  return *layers_[i];
}

Residual::Residual(std::unique_ptr<Module> body) : body_(std::move(body)) {
  OB_REQUIRE(body_ != nullptr, "Residual: null body");
}

Tensor Residual::forward(const Tensor& x) {
  Tensor y = body_->forward(x);
  OB_REQUIRE(y.shape() == x.shape(),
             "Residual: body must preserve tensor shape");
  y += x;
  return y;
}

Tensor Residual::backward(const Tensor& grad_out) {
  Tensor g = body_->backward(grad_out);
  g += grad_out;
  return g;
}

void Residual::set_training(bool training) {
  Module::set_training(training);
  body_->set_training(training);
}

}  // namespace omniboost::nn

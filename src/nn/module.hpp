#pragma once
/// \file module.hpp
/// Minimal define-by-layer neural network framework with hand-written
/// backpropagation. This substitutes for the paper's PyTorch dependency: the
/// throughput estimator (a ~20k-parameter ResNet9-style CNN) is built, trained
/// and evaluated entirely on top of this module graph.
///
/// Conventions:
///  * Convolutional modules consume NCHW tensors, Linear consumes (N, F).
///  * The leading dimension N is a true batch axis: every layer computes
///    each sample independently in inference mode (BatchNorm switches to its
///    running statistics), so a batched forward over N stacked samples is
///    bit-identical to N single-sample forwards. The estimator's
///    predict_batch relies on this contract; tests/estimator_batch_test.cpp
///    pins it.
///  * A training-mode forward() caches whatever backward() needs (inference
///    keeps no input copies, so backward must follow a training forward);
///    backward(grad_out) returns grad w.r.t. the input and *accumulates*
///    parameter gradients. These caches are per-layer-instance scratch — a
///    module graph is cheap to run but NOT thread-safe to share; give each
///    thread its own instance (the estimator-clone rule,
///    docs/ARCHITECTURE.md).
///  * Parameter gradients are cleared explicitly via zero_grad().

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "nn/kernel.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace omniboost::nn {

using tensor::Tensor;

/// A learnable tensor with its gradient accumulator.
struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(tensor::Shape shape)
      : value(shape), grad(std::move(shape)) {}
};

/// Base class of all network layers.
class Module {
 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  virtual ~Module() = default;

  /// Computes the layer output; in training mode, also caches what
  /// backward() needs.
  virtual Tensor forward(const Tensor& x) = 0;

  /// Given dLoss/dOutput, accumulates parameter grads and returns dLoss/dInput.
  /// Must be called after a matching forward().
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Non-trainable state tensors that must travel with the weights
  /// (BatchNorm running statistics). Serialization persists these alongside
  /// params(); optimizers never touch them.
  virtual std::vector<Tensor*> buffers() { return {}; }

  /// Switches between training and inference behaviour (BatchNorm etc.).
  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Selects the compute kernel for layers that have more than one lowering
  /// (Conv2d, Linear, GELU; see nn/kernel.hpp). Containers propagate
  /// recursively; other layers ignore it. Every kind is deterministic
  /// run-to-run; only kReference is bit-frozen against the paper campaigns.
  virtual void set_kernel(KernelKind /*kind*/) {}

  /// Randomly (re-)initializes the layer's parameters.
  virtual void init(util::Rng& /*rng*/) {}

  /// Human-readable layer name for diagnostics.
  virtual std::string name() const = 0;

  /// Zeroes all parameter gradients.
  void zero_grad();

  /// Total number of trainable scalars.
  std::size_t num_params();

 protected:
  bool training_ = true;
};

/// Ordered container running sub-modules front to back. In inference, each
/// Conv2d -> BatchNorm2d -> GELU run whose conv and GELU use a non-reference
/// kernel runs as one Conv2d::forward_bn_gelu call, bit-identical to the
/// three forwards in turn.
class Sequential final : public Module {
 public:
  Sequential() = default;

  /// Appends a layer and returns *this for chaining.
  Sequential& add(std::unique_ptr<Module> m);

  /// Constructs a layer in place.
  template <typename M, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<M>(std::forward<Args>(args)...));
  }

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::vector<Tensor*> buffers() override;
  void set_training(bool training) override;
  void set_kernel(KernelKind kind) override;
  void init(util::Rng& rng) override;
  std::string name() const override { return "Sequential"; }

  std::size_t size() const { return layers_.size(); }
  Module& layer(std::size_t i);

 private:
  std::vector<std::unique_ptr<Module>> layers_;
};

/// Identity-skip residual wrapper: y = body(x) + x.
///
/// Requires the body to preserve tensor shape. Used for the estimator's two
/// residual stages (the paper's "residual connections for managing decisions").
class Residual final : public Module {
 public:
  explicit Residual(std::unique_ptr<Module> body);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return body_->params(); }
  std::vector<Tensor*> buffers() override { return body_->buffers(); }
  void set_training(bool training) override;
  void set_kernel(KernelKind kind) override { body_->set_kernel(kind); }
  void init(util::Rng& rng) override { body_->init(rng); }
  std::string name() const override { return "Residual"; }

 private:
  std::unique_ptr<Module> body_;
};

}  // namespace omniboost::nn

#pragma once
/// \file layers.hpp
/// Concrete layers: Conv2d, Linear, BatchNorm2d, activations, pooling.
/// All consume/produce NCHW (or (N,F) for Linear) float tensors and
/// implement exact analytic backward passes (verified against numeric
/// differentiation in tests/nn_gradcheck_test.cpp).

#include <cstddef>

#include "nn/module.hpp"

namespace omniboost::nn {

class BatchNorm2d;

/// 2-D convolution (square kernel, symmetric zero padding, no dilation).
class Conv2d final : public Module {
 public:
  /// \param in_ch    input channels
  /// \param out_ch   output channels
  /// \param kernel   square kernel extent (>=1)
  /// \param stride   stride in both dimensions (>=1)
  /// \param padding  symmetric zero padding
  /// \param bias     whether to learn an additive per-channel bias
  Conv2d(std::size_t in_ch, std::size_t out_ch, std::size_t kernel,
         std::size_t stride = 1, std::size_t padding = 0, bool bias = true);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  void init(util::Rng& rng) override;  ///< Kaiming-normal weights, zero bias
  void set_kernel(KernelKind kind) override { kernel_kind_ = kind; }
  KernelKind kernel_kind() const { return kernel_kind_; }
  std::string name() const override { return "Conv2d"; }

  /// The inference block this -> bn -> GELU in one pass, for a non-
  /// reference kernel in inference mode: the GEMM epilogue adds the bias,
  /// applies bn's running-statistics transform and the rational-tanh GELU
  /// (the kGemm one). Bit-identical to forward(), bn.forward() and
  /// GELU::forward() in turn; Sequential::forward takes it for every such
  /// run of layers.
  Tensor forward_bn_gelu(const Tensor& x, const BatchNorm2d& bn);

  std::size_t in_channels() const { return in_ch_; }
  std::size_t out_channels() const { return out_ch_; }

 private:
  /// Validates x, caches it in training mode and returns the output tensor.
  Tensor output_for(const Tensor& x);
  Tensor forward_reference(const Tensor& x, Tensor y) const;
  /// bn == nullptr: plain conv; otherwise the fused block.
  Tensor forward_gemm(const Tensor& x, Tensor y, const BatchNorm2d* bn) const;
  Tensor backward_reference(const Tensor& grad_out);
  Tensor backward_gemm(const Tensor& grad_out);

  std::size_t in_ch_, out_ch_, kernel_, stride_, padding_;
  bool has_bias_;
  /// Active lowering; captured from nn::default_kernel() at construction.
  KernelKind kernel_kind_ = default_kernel();
  Param weight_;  ///< (out_ch, in_ch, k, k)
  Param bias_;    ///< (out_ch)
  Tensor input_;  ///< cached forward input (training mode only)
};

/// Fully-connected layer on (N, in_features) tensors.
class Linear final : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features, bool bias = true);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  void init(util::Rng& rng) override;  ///< Kaiming-normal weights, zero bias
  void set_kernel(KernelKind kind) override { kernel_kind_ = kind; }
  KernelKind kernel_kind() const { return kernel_kind_; }
  std::string name() const override { return "Linear"; }

 private:
  std::size_t in_f_, out_f_;
  bool has_bias_;
  /// Active lowering; captured from nn::default_kernel() at construction.
  KernelKind kernel_kind_ = default_kernel();
  Param weight_;  ///< (out_features, in_features)
  Param bias_;    ///< (out_features)
  Tensor input_;  ///< cached forward input (training mode only)
};

/// Per-channel batch normalization over (N, H, W) with running statistics.
class BatchNorm2d final : public Module {
 public:
  explicit BatchNorm2d(std::size_t channels, float eps = 1e-5f,
                       float momentum = 0.1f);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::vector<Tensor*> buffers() override {
    return {&running_mean_, &running_var_};
  }
  void init(util::Rng& rng) override;  ///< gamma=1, beta=0, reset running stats
  std::string name() const override { return "BatchNorm2d"; }

  std::size_t channels() const { return channels_; }

  /// One channel's inference transform from the running statistics. apply()
  /// is the one expression both the inference forward and the fused conv
  /// epilogue (Conv2d::forward_bn_gelu) evaluate.
  struct Affine {
    float mean, istd, gamma, beta;
    float apply(float x) const { return gamma * (x - mean) * istd + beta; }
  };
  Affine inference_affine(std::size_t c) const;

 private:
  std::size_t channels_;
  float eps_, momentum_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;
  // backward caches
  Tensor xhat_, inv_std_;
  std::size_t batch_count_ = 0;  ///< N*H*W of the cached batch
};

/// Gaussian Error Linear Unit (tanh approximation), the paper's activation.
///
/// Training-mode forward and backward always use the exact scalar
/// value()/derivative(), whatever the kernel kind; the training forward
/// also evaluates derivative(), reusing value()'s tanh, and backward only
/// scales by it. Inference under kGemm evaluates tanh with a
/// vectorized rational approximation, within 1e-6 * max(1, |x|) of value();
/// kReference inference stays on value() (docs/DETERMINISM.md D3).
/// Inference keeps no backward cache.
class GELU final : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "GELU"; }
  void set_kernel(KernelKind kind) override { kernel_kind_ = kind; }
  KernelKind kernel_kind() const { return kernel_kind_; }

  /// Scalar GELU (exposed for unit tests).
  static float value(float x);
  /// Scalar derivative d GELU / dx.
  static float derivative(float x);

 private:
  /// Active inference lowering; captured from nn::default_kernel().
  KernelKind kernel_kind_ = default_kernel();
  Tensor slope_;  ///< derivative() per forward input (training mode only)
};

/// Rectified linear unit (used by the GELU-vs-ReLU ablation bench).
/// Inference keeps no backward cache.
class ReLU final : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor input_;  ///< cached forward input (training mode only)
};

/// Non-overlapping 2-D max pooling. Trailing rows/cols that do not fill a
/// complete window are dropped (floor semantics, like PyTorch's default).
class MaxPool2d final : public Module {
 public:
  explicit MaxPool2d(std::size_t kernel, std::size_t stride = 0);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "MaxPool2d"; }

 private:
  std::size_t kernel_, stride_;
  tensor::Shape in_shape_;
  /// Flat input index per output element (training mode only).
  std::vector<std::size_t> argmax_;
};

/// Global average pooling: (N,C,H,W) -> (N,C).
class GlobalAvgPool final : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "GlobalAvgPool"; }

 private:
  tensor::Shape in_shape_;
};

}  // namespace omniboost::nn

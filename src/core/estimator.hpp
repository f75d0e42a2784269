#pragma once
/// \file estimator.hpp
/// The throughput estimator (paper §IV-B): a ResNet9-style CNN with ~20k
/// trainable parameters and GELU activations that maps a masked embedding
/// tensor to the expected normalized throughput of each computing component.
/// Target preprocessing composes standardization (z-score) with min-max
/// normalization to [0, 1], exactly as described in §V, and is inverted at
/// prediction time.

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "nn/loss.hpp"
#include "nn/module.hpp"
#include "nn/trainer.hpp"
#include "tensor/tensor.hpp"
#include "util/stats.hpp"

namespace omniboost::core {

/// Training samples: masked embedding inputs and measured per-component
/// throughput targets (inferences/sec flow, see ThroughputReport).
struct SampleSet {
  std::vector<tensor::Tensor> inputs;
  std::vector<std::array<double, 3>> targets;

  std::size_t size() const { return inputs.size(); }
};

/// Estimator hyper-parameters.
struct EstimatorConfig {
  std::size_t c1 = 8;   ///< stem width
  std::size_t c2 = 16;  ///< mid width
  std::size_t c3 = 24;  ///< late width
  bool use_gelu = true; ///< false switches to ReLU (ablation A4)
  /// Compress the targets' dynamic range with y' = log1p(y / log_scale)
  /// before standardization. Multi-DNN mixes span throughputs from ~0.1 to
  /// tens of inferences/sec; without this the regression cannot resolve the
  /// heavy models' placements.
  bool log_targets = true;
  double log_scale = 0.05;
  std::uint64_t init_seed = 7;
};

/// The CNN wrapper: architecture, preprocessing, training, prediction.
class ThroughputEstimator {
 public:
  /// \param models_dim  embedding M dimension
  /// \param layers_dim  embedding L dimension
  ThroughputEstimator(std::size_t models_dim, std::size_t layers_dim,
                      EstimatorConfig config = {});

  /// Number of trainable scalars (the paper quotes 20,044; this
  /// configuration yields 20,259 — pinned by a unit test).
  std::size_t num_params() const;

  /// Fits target preprocessing on the training split, then trains with
  /// mini-batch Adam. The last \p val_count samples form the validation set
  /// (paper: 400 train / 100 validation).
  nn::TrainHistory fit(const SampleSet& data, std::size_t val_count,
                       const nn::Loss& loss, const nn::TrainConfig& train);

  /// Predicted per-component throughput, denormalized to inferences/sec.
  std::array<double, 3> predict(const tensor::Tensor& input) const;

  /// Predicted normalized outputs in [0, 1] (the network's raw view).
  std::array<double, 3> predict_normalized(const tensor::Tensor& input) const;

  /// Scalar reward for search: the mean of the three predicted component
  /// flows. Flows sum to M * T, so this is proportional to the workload's
  /// measured average throughput, and averaging the three redundant
  /// regressions cancels part of the estimator's error.
  double predict_reward(const tensor::Tensor& input) const;

  /// Batched predict(): stacks \p inputs along a leading batch dimension and
  /// runs ONE forward pass through the CNN, amortizing the per-layer
  /// traversal and output allocations over the whole batch. Every layer of
  /// the network is per-sample independent in inference mode (BatchNorm uses
  /// running statistics), so element i of the result is bit-identical to
  /// predict(inputs[i]). An empty batch returns an empty vector.
  ///
  /// Thread-safety follows the same clone rule as predict(): the forward
  /// pass mutates the estimator's per-layer activation caches, so concurrent
  /// callers need private clones (see docs/ESTIMATOR.md).
  std::vector<std::array<double, 3>> predict_batch(
      const std::vector<tensor::Tensor>& inputs) const;

  /// Batched predict_reward(): element i equals predict_reward(inputs[i]).
  std::vector<double> predict_rewards(
      const std::vector<tensor::Tensor>& inputs) const;

  bool trained() const { return trained_; }

  /// Compute-kernel selection for the CNN's Conv2d/Linear layers (see
  /// nn/kernel.hpp). A freshly constructed or loaded estimator uses
  /// nn::default_kernel(); this switches every layer of this instance. The
  /// kernel kind is execution state, not model state — it is NOT serialized,
  /// and both kinds predict within 1e-6 of each other (only kReference is
  /// bit-frozen against the paper campaigns).
  void set_kernel(nn::KernelKind kind);
  nn::KernelKind kernel() const { return kernel_kind_; }

  /// Serializes architecture configuration, fitted target preprocessing and
  /// network weights (design-time artifact for the run-time scheduler).
  void save(std::ostream& os) const;
  void save_file(const std::string& path) const;

  /// Reconstructs an estimator from a stream written by save(); the stream
  /// must end there. Throws std::runtime_error on malformed input: a
  /// dimension outside [1, 1024] (checked before anything is allocated), a
  /// non-finite log_scale, target transform, parameter or buffer, or
  /// trailing bytes.
  static ThroughputEstimator load(std::istream& is);
  static ThroughputEstimator load_file(const std::string& path);

 private:
  /// Forward transform applied to raw rates before the affine preprocessing.
  double compress(double rate) const;
  /// Inverse of compress().
  double expand(double value) const;

  std::unique_ptr<nn::Sequential> net_;
  std::array<util::Affine1D, 3> target_transform_;
  std::size_t models_dim_, layers_dim_;
  EstimatorConfig config_;
  nn::KernelKind kernel_kind_ = nn::default_kernel();
  bool trained_ = false;
};

}  // namespace omniboost::core

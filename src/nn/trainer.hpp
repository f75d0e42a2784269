#pragma once
/// \file trainer.hpp
/// Mini-batch regression trainer producing per-epoch train/validation loss
/// histories (the data behind the paper's Fig. 4).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/loss.hpp"
#include "nn/module.hpp"
#include "nn/optim.hpp"
#include "nn/schedulers.hpp"
#include "util/rng.hpp"

namespace omniboost::nn {

/// A supervised regression dataset: per-sample input (CHW) and target (F).
struct Dataset {
  std::vector<Tensor> inputs;
  std::vector<Tensor> targets;

  std::size_t size() const { return inputs.size(); }

  /// Splits off the last \p n samples as a second dataset.
  std::pair<Dataset, Dataset> split_tail(std::size_t n) const;
};

/// Stacks per-sample CHW tensors (or F vectors) into one batched tensor.
Tensor stack(const std::vector<Tensor>& samples,
             const std::vector<std::size_t>& indices);

/// Builds a fresh, architecturally identical instance of the model being
/// trained/evaluated, configured the same way (kernel kind, eval mode).
/// Initial weights are irrelevant — callers overwrite them through
/// nn::serialize before use.
using ModuleFactory = std::function<std::unique_ptr<Module>()>;

/// Training hyper-parameters. Adam's decoupled weight decay is fixed at
/// 1e-4.
struct TrainConfig {
  std::size_t epochs = 100;   ///< paper: 100 epochs
  std::size_t batch_size = 16;
  float lr = 3e-3f;
  std::uint64_t seed = 1;     ///< shuffling seed
  /// Optional per-epoch learning-rate schedule (overrides \c lr when set;
  /// not owned, must outlive the training run).
  const LrScheduler* lr_schedule = nullptr;
  /// Design-time parallelism for the per-epoch validation pass. The training
  /// loop itself is inherently sequential — step t+1 consumes the weights
  /// step t produced, and BatchNorm's batch statistics couple the samples
  /// of a minibatch — but validation runs in inference mode, where every
  /// sample is independent (the module.hpp batching contract), so its
  /// batches fan out over a util::ThreadPool when workers > 1 and
  /// `replicate` is set. Results are byte-identical for every worker
  /// count: each worker evaluates a weight-identical replica and the
  /// per-batch losses reduce in batch order.
  std::size_t workers = 1;
  /// Replica factory for the parallel validation pass (modules cache
  /// activations, so threads can never share one instance — the same
  /// clone rule as the parallel MCTS). Leave null to evaluate serially.
  ModuleFactory replicate = nullptr;
};

/// Per-epoch loss history.
struct TrainHistory {
  std::vector<double> train_loss;
  std::vector<double> val_loss;  ///< empty if no validation set given
};

/// Runs mini-batch training of \p model with Adam.
///
/// \param model  network in training mode (switched internally per phase)
/// \param loss   criterion (paper: L1)
/// \param train  training samples
/// \param val    validation samples (may be empty)
TrainHistory train_regression(Module& model, const Loss& loss,
                              const Dataset& train, const Dataset& val,
                              const TrainConfig& config);

/// Mean loss of \p model over \p data in inference mode.
///
/// With \p workers > 1 and a non-null \p replicate factory, batches are
/// evaluated concurrently on weight-identical replicas (byte-identical to
/// the serial path; see TrainConfig::workers). Otherwise runs serially on
/// \p model itself.
double evaluate(Module& model, const Loss& loss, const Dataset& data,
                std::size_t batch_size = 16, std::size_t workers = 1,
                const ModuleFactory& replicate = nullptr);

}  // namespace omniboost::nn

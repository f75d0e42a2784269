#pragma once
/// \file schedulers.hpp
/// The learning-rate schedule hook: train_regression asks
/// TrainConfig::lr_schedule for the rate of each epoch before running it.

#include <cstddef>

#include "nn/optim.hpp"

namespace omniboost::nn {

/// Interface: learning rate to use *for* epoch \p epoch (0-based).
class LrScheduler {
 public:
  virtual ~LrScheduler() = default;

  virtual float lr_at(std::size_t epoch) const = 0;

  /// Convenience: applies lr_at(epoch) to an optimizer.
  void apply(Optimizer& opt, std::size_t epoch) const {
    opt.set_lr(lr_at(epoch));
  }
};

}  // namespace omniboost::nn

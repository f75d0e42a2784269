#include "nn/trainer.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <thread>

#include "nn/serialize.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace omniboost::nn {

namespace {

constexpr float kWeightDecay = 1e-4f;  ///< Adam's decoupled weight decay

}  // namespace

std::pair<Dataset, Dataset> Dataset::split_tail(std::size_t n) const {
  OB_REQUIRE(n <= size(), "Dataset::split_tail: n exceeds dataset size");
  OB_REQUIRE(inputs.size() == targets.size(), "Dataset: ragged dataset");
  Dataset head, tail;
  const std::size_t cut = size() - n;
  head.inputs.assign(inputs.begin(), inputs.begin() + cut);
  head.targets.assign(targets.begin(), targets.begin() + cut);
  tail.inputs.assign(inputs.begin() + cut, inputs.end());
  tail.targets.assign(targets.begin() + cut, targets.end());
  return {std::move(head), std::move(tail)};
}

Tensor stack(const std::vector<Tensor>& samples,
             const std::vector<std::size_t>& indices) {
  OB_REQUIRE(!indices.empty(), "stack: empty index list");
  const Tensor& first = samples.at(indices.front());
  tensor::Shape shape;
  shape.push_back(indices.size());
  for (std::size_t e : first.shape()) shape.push_back(e);

  Tensor out(shape);
  const std::size_t stride = first.size();
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const Tensor& s = samples.at(indices[k]);
    OB_REQUIRE(s.shape() == first.shape(), "stack: heterogeneous shapes");
    std::copy(s.data(), s.data() + stride, out.data() + k * stride);
  }
  return out;
}

namespace {

/// Loss of one evaluation batch [start, end) through \p model (inference
/// mode assumed). Shared by the serial and parallel paths so both compute
/// the exact same per-batch doubles.
float batch_loss(Module& model, const Loss& loss, const Dataset& data,
                 std::size_t start, std::size_t end) {
  std::vector<std::size_t> idx(end - start);
  std::iota(idx.begin(), idx.end(), start);
  const Tensor pred = model.forward(stack(data.inputs, idx));
  const Tensor tgt = stack(data.targets, idx);
  return loss.compute(pred, tgt).value;
}

/// Reusable parallel-validation context: one pool plus one weight-identical
/// replica per worker, built once and re-synced with the live model on
/// every run() — so a 100-epoch training pays thread/architecture
/// construction once, not per epoch. Per-batch losses land in a slot per
/// batch and reduce in batch order: the identical additions, in the
/// identical order, as the serial evaluate loop.
class ParallelValidator {
 public:
  ParallelValidator(std::size_t workers, std::size_t batches,
                    const ModuleFactory& replicate)
      : pool_(util::ThreadPool::clamped(workers, batches)) {
    replicas_.reserve(pool_.size());
    for (std::size_t w = 0; w < pool_.size(); ++w) {
      std::unique_ptr<Module> r = replicate();
      OB_REQUIRE(r != nullptr, "evaluate: replicate factory returned null");
      r->set_training(false);
      replicas_.push_back(std::move(r));
    }
  }

  double run(Module& model, const Loss& loss, const Dataset& data,
             std::size_t batch_size) {
    // Weight re-sync (the model trains between calls): one serialization
    // of the live model, loaded into every replica.
    std::stringstream weights;
    save_params(model, weights);
    const std::string blob = weights.str();
    for (const auto& r : replicas_) {
      std::istringstream is(blob);
      load_params(*r, is);
    }

    const std::size_t batches = (data.size() + batch_size - 1) / batch_size;
    std::vector<float> losses(batches, 0.0f);
    pool_.parallel_for(batches, [&](std::size_t b, std::size_t worker) {
      const std::size_t start = b * batch_size;
      const std::size_t end = std::min(start + batch_size, data.size());
      losses[b] = batch_loss(*replicas_[worker], loss, data, start, end);
    });

    double total = 0.0;
    for (std::size_t b = 0; b < batches; ++b) {
      const std::size_t start = b * batch_size;
      const std::size_t end = std::min(start + batch_size, data.size());
      total += static_cast<double>(losses[b]) *
               static_cast<double>(end - start);
    }
    return total / static_cast<double>(data.size());
  }

 private:
  util::ThreadPool pool_;
  std::vector<std::unique_ptr<Module>> replicas_;
};

/// Serial evaluation shared by evaluate() and train_regression.
double evaluate_serial(Module& model, const Loss& loss, const Dataset& data,
                       std::size_t batch_size) {
  model.set_training(false);
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t start = 0; start < data.size(); start += batch_size) {
    const std::size_t end = std::min(start + batch_size, data.size());
    total += static_cast<double>(batch_loss(model, loss, data, start, end)) *
             static_cast<double>(end - start);
    count += end - start;
  }
  model.set_training(true);
  return total / static_cast<double>(count);
}

}  // namespace

double evaluate(Module& model, const Loss& loss, const Dataset& data,
                std::size_t batch_size, std::size_t workers,
                const ModuleFactory& replicate) {
  if (data.size() == 0) return 0.0;
  OB_REQUIRE(batch_size > 0, "evaluate: batch_size must be > 0");
  const std::size_t batches = (data.size() + batch_size - 1) / batch_size;
  if (workers > 1 && replicate != nullptr && batches > 1) {
    ParallelValidator validator(workers, batches, replicate);
    return validator.run(model, loss, data, batch_size);
  }
  return evaluate_serial(model, loss, data, batch_size);
}

TrainHistory train_regression(Module& model, const Loss& loss,
                              const Dataset& train, const Dataset& val,
                              const TrainConfig& config) {
  OB_REQUIRE(train.size() > 0, "train_regression: empty training set");
  OB_REQUIRE(train.inputs.size() == train.targets.size(),
             "train_regression: ragged training set");
  OB_REQUIRE(config.batch_size > 0, "train_regression: batch_size must be > 0");

  util::Rng rng(config.seed);
  Adam optim(model.params(), config.lr, kWeightDecay);
  TrainHistory history;
  model.set_training(true);

  // Validation context built once for the whole run: pool threads and
  // replica architectures are reused across epochs, only the weights are
  // re-synced each time (see ParallelValidator).
  constexpr std::size_t kValBatch = 16;
  const std::size_t val_batches = (val.size() + kValBatch - 1) / kValBatch;
  std::unique_ptr<ParallelValidator> validator;
  if (config.workers > 1 && config.replicate != nullptr && val_batches > 1) {
    validator = std::make_unique<ParallelValidator>(config.workers,
                                                    val_batches,
                                                    config.replicate);
  }

  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    if (config.lr_schedule != nullptr) config.lr_schedule->apply(optim, epoch);
    rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t seen = 0;
    for (std::size_t start = 0; start < order.size();
         start += config.batch_size) {
      const std::size_t end =
          std::min(start + config.batch_size, order.size());
      // BatchNorm needs >= 2 samples for meaningful batch statistics; fold a
      // trailing singleton into the previous batch instead of training on it.
      if (end - start < 2 && start != 0) break;
      const std::vector<std::size_t> idx(order.begin() + start,
                                         order.begin() + end);
      const Tensor x = stack(train.inputs, idx);
      const Tensor tgt = stack(train.targets, idx);

      optim.zero_grad();
      const Tensor pred = model.forward(x);
      const LossResult lr = loss.compute(pred, tgt);
      model.backward(lr.grad);
      optim.step();

      epoch_loss += static_cast<double>(lr.value) *
                    static_cast<double>(idx.size());
      seen += idx.size();
    }
    history.train_loss.push_back(epoch_loss / static_cast<double>(seen));
    if (val.size() > 0) {
      history.val_loss.push_back(
          validator != nullptr
              ? validator->run(model, loss, val, kValBatch)
              : evaluate_serial(model, loss, val, kValBatch));
    }
  }
  return history;
}

}  // namespace omniboost::nn

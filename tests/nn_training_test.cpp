// Optimizers, dataset plumbing, and end-to-end convergence of the training
// loop on synthetic regression problems.

#include <gtest/gtest.h>

#include "nn/layers.hpp"
#include "nn/optim.hpp"
#include "nn/trainer.hpp"
#include "util/rng.hpp"

namespace {

using namespace omniboost::nn;
using omniboost::tensor::Tensor;
using omniboost::util::Rng;

TEST(Stack, ConcatenatesAlongNewBatchDim) {
  std::vector<Tensor> samples;
  samples.push_back(Tensor::from_data({2, 2}, {1, 2, 3, 4}));
  samples.push_back(Tensor::from_data({2, 2}, {5, 6, 7, 8}));
  const Tensor batch = stack(samples, {1, 0});
  EXPECT_EQ(batch.shape(), (omniboost::tensor::Shape{2, 2, 2}));
  EXPECT_FLOAT_EQ(batch.at({0, 0, 0}), 5.0f);
  EXPECT_FLOAT_EQ(batch.at({1, 1, 1}), 4.0f);
}

TEST(Stack, RejectsHeterogeneousShapes) {
  std::vector<Tensor> samples;
  samples.push_back(Tensor({2, 2}));
  samples.push_back(Tensor({3, 2}));
  EXPECT_THROW(stack(samples, {0, 1}), std::invalid_argument);
  EXPECT_THROW(stack(samples, {}), std::invalid_argument);
}

TEST(Dataset, SplitTail) {
  Dataset d;
  for (int i = 0; i < 10; ++i) {
    d.inputs.push_back(Tensor({1}, static_cast<float>(i)));
    d.targets.push_back(Tensor({1}, static_cast<float>(i)));
  }
  const auto [head, tail] = d.split_tail(3);
  EXPECT_EQ(head.size(), 7u);
  EXPECT_EQ(tail.size(), 3u);
  EXPECT_FLOAT_EQ(tail.inputs[0][0], 7.0f);
  EXPECT_THROW(d.split_tail(11), std::invalid_argument);
}

TEST(Adam, FirstStepIsLrSized) {
  Param p({1});
  p.value[0] = 0.0f;
  Adam opt({&p}, 0.01f);
  p.grad[0] = 123.0f;  // magnitude shouldn't matter on step 1
  opt.step();
  EXPECT_NEAR(p.value[0], -0.01f, 1e-4f);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize (x - 3)^2 by gradient descent.
  Param p({1});
  p.value[0] = -5.0f;
  Adam opt({&p}, 0.1f);
  for (int i = 0; i < 500; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 1e-2f);
}

TEST(Optimizer, ZeroGradClears) {
  Param p({2});
  p.grad.fill(5.0f);
  Adam opt({&p}, 0.1f);
  opt.zero_grad();
  EXPECT_EQ(p.grad[0], 0.0f);
  EXPECT_EQ(p.grad[1], 0.0f);
}

TEST(Optimizer, RejectsEmptyOrNull) {
  EXPECT_THROW(Adam({}, 0.1f), std::invalid_argument);
  EXPECT_THROW(Adam({nullptr}, 0.1f), std::invalid_argument);
  Param p({1});
  EXPECT_THROW(Adam({&p}, 0.0f), std::invalid_argument);
}

/// Builds a linear regression dataset y = Wx + b with noise.
Dataset make_linear_dataset(std::size_t n, Rng& rng) {
  Dataset d;
  for (std::size_t i = 0; i < n; ++i) {
    Tensor x({4});
    for (std::size_t k = 0; k < 4; ++k)
      x[k] = static_cast<float>(rng.uniform(-1, 1));
    Tensor y({2});
    y[0] = 2.0f * x[0] - x[1] + 0.5f;
    y[1] = x[2] + 3.0f * x[3] - 1.0f;
    d.inputs.push_back(std::move(x));
    d.targets.push_back(std::move(y));
  }
  return d;
}

TEST(Trainer, LearnsLinearMap) {
  Rng rng(71);
  const Dataset train = make_linear_dataset(128, rng);
  const Dataset val = make_linear_dataset(32, rng);

  Linear model(4, 2);
  model.init(rng);
  MSELoss mse;
  TrainConfig cfg;
  cfg.epochs = 120;
  cfg.batch_size = 16;
  cfg.lr = 0.05f;
  const TrainHistory h = train_regression(model, mse, train, val, cfg);

  ASSERT_EQ(h.train_loss.size(), cfg.epochs);
  ASSERT_EQ(h.val_loss.size(), cfg.epochs);
  EXPECT_LT(h.val_loss.back(), 1e-3);
  EXPECT_LT(h.train_loss.back(), h.train_loss.front() * 0.05);
}

TEST(Trainer, LossDecreasesMonotonicallyOnAverage) {
  Rng rng(73);
  const Dataset train = make_linear_dataset(64, rng);
  Linear model(4, 2);
  model.init(rng);
  L1Loss l1;
  TrainConfig cfg;
  cfg.epochs = 40;
  cfg.lr = 0.02f;
  const TrainHistory h = train_regression(model, l1, train, {}, cfg);
  // Compare first and last quarter averages rather than strict monotonicity.
  double early = 0.0, late = 0.0;
  for (int i = 0; i < 10; ++i) {
    early += h.train_loss[static_cast<std::size_t>(i)];
    late += h.train_loss[h.train_loss.size() - 1 - static_cast<std::size_t>(i)];
  }
  EXPECT_LT(late, early * 0.5);
  EXPECT_TRUE(h.val_loss.empty());
}

TEST(Trainer, DeterministicGivenSeed) {
  Rng rng(79);
  const Dataset train = make_linear_dataset(32, rng);
  const auto run = [&](std::uint64_t seed) {
    Rng init(5);
    Linear model(4, 2);
    model.init(init);
    MSELoss mse;
    TrainConfig cfg;
    cfg.epochs = 10;
    cfg.seed = seed;
    return train_regression(model, mse, train, {}, cfg).train_loss;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

TEST(Trainer, EvaluateRunsInEvalMode) {
  Rng rng(83);
  Dataset data = make_linear_dataset(8, rng);
  Sequential model;
  model.emplace<Linear>(4, 2);
  model.init(rng);
  MSELoss mse;
  const double loss = evaluate(model, mse, data);
  EXPECT_GT(loss, 0.0);
  EXPECT_EQ(evaluate(model, mse, Dataset{}), 0.0);
}

TEST(Trainer, RejectsEmptyTrainingSet) {
  Sequential model;
  model.emplace<Linear>(2, 1);
  MSELoss mse;
  EXPECT_THROW(train_regression(model, mse, Dataset{}, Dataset{}, {}),
               std::invalid_argument);
}

}  // namespace

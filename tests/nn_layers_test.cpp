// Forward-pass semantics of every layer: shapes, hand-computed values,
// train/eval behaviour, parameter counts.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/layers.hpp"
#include "util/rng.hpp"

namespace {

using namespace omniboost::nn;
using omniboost::tensor::Tensor;
using omniboost::util::Rng;

TEST(Conv2d, OutputShape) {
  Conv2d conv(3, 8, 3, 1, 1);
  const Tensor y = conv.forward(Tensor({2, 3, 11, 37}));
  EXPECT_EQ(y.shape(), (omniboost::tensor::Shape{2, 8, 11, 37}));
}

TEST(Conv2d, StrideAndPaddingArithmetic) {
  Conv2d conv(1, 1, 3, 2, 0);
  const Tensor y = conv.forward(Tensor({1, 1, 7, 9}));
  EXPECT_EQ(y.extent(2), 3u);
  EXPECT_EQ(y.extent(3), 4u);
}

TEST(Conv2d, IdentityKernelReproducesInput) {
  Conv2d conv(1, 1, 3, 1, 1);
  // Center tap = 1, everything else 0, bias 0.
  for (Param* p : conv.params()) p->value.zero();
  conv.params()[0]->value.at({0, 0, 1, 1}) = 1.0f;
  Tensor x({1, 1, 4, 5});
  Rng rng(1);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<float>(rng.uniform(-1, 1));
  const Tensor y = conv.forward(x);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, SummingKernelComputesLocalSum) {
  Conv2d conv(1, 1, 3, 1, 0);
  conv.params()[0]->value.fill(1.0f);
  conv.params()[1]->value.zero();
  Tensor x({1, 1, 3, 3}, 1.0f);
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.size(), 1u);
  EXPECT_FLOAT_EQ(y[0], 9.0f);
}

TEST(Conv2d, BiasIsAdded) {
  Conv2d conv(1, 2, 1, 1, 0);
  conv.params()[0]->value.zero();
  conv.params()[1]->value[0] = 1.5f;
  conv.params()[1]->value[1] = -2.0f;
  const Tensor y = conv.forward(Tensor({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.at({0, 0, 0, 0}), 1.5f);
  EXPECT_FLOAT_EQ(y.at({0, 1, 1, 1}), -2.0f);
}

TEST(Conv2d, ParamCount) {
  Conv2d conv(3, 8, 3, 1, 1);
  EXPECT_EQ(conv.num_params(), 3u * 8 * 9 + 8);
  Conv2d no_bias(3, 8, 3, 1, 1, false);
  EXPECT_EQ(no_bias.num_params(), 3u * 8 * 9);
}

TEST(Conv2d, KaimingInitStatistics) {
  Conv2d conv(16, 16, 3, 1, 1);
  Rng rng(7);
  conv.init(rng);
  const Tensor& w = conv.params()[0]->value;
  double sum = 0.0, sq = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    sum += w[i];
    sq += static_cast<double>(w[i]) * w[i];
  }
  const double mean = sum / static_cast<double>(w.size());
  const double var = sq / static_cast<double>(w.size()) - mean * mean;
  const double expected_var = 2.0 / (16.0 * 9.0);
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, expected_var, expected_var * 0.35);
}

TEST(Conv2d, RejectsWrongInput) {
  Conv2d conv(3, 4, 3, 1, 1);
  EXPECT_THROW(conv.forward(Tensor({3, 8, 8})), std::invalid_argument);
  EXPECT_THROW(conv.forward(Tensor({1, 4, 8, 8})), std::invalid_argument);
  EXPECT_THROW(conv.backward(Tensor({1, 4, 8, 8})), std::invalid_argument);
}

TEST(Linear, MatrixMultiplySemantics) {
  Linear fc(3, 2);
  // W = [[1,2,3],[0,-1,1]], b = [0.5, -0.5]
  Tensor& w = fc.params()[0]->value;
  w = Tensor::from_data({2, 3}, {1, 2, 3, 0, -1, 1});
  fc.params()[1]->value = Tensor::from_vector({0.5f, -0.5f});
  const Tensor y =
      fc.forward(Tensor::from_data({1, 3}, {1, 1, 1}));
  EXPECT_FLOAT_EQ(y.at({0, 0}), 6.5f);
  EXPECT_FLOAT_EQ(y.at({0, 1}), -0.5f);
}

TEST(Linear, ParamCount) {
  Linear fc(24, 3);
  EXPECT_EQ(fc.num_params(), 24u * 3 + 3);
}

TEST(BatchNorm2d, NormalizesBatchStatistics) {
  BatchNorm2d bn(2);
  bn.set_training(true);
  Rng rng(3);
  Tensor x({4, 2, 5, 5});
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<float>(rng.normal(5.0, 3.0));
  const Tensor y = bn.forward(x);
  // Per-channel mean ~0, var ~1.
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    std::size_t count = 0;
    for (std::size_t b = 0; b < 4; ++b)
      for (std::size_t h = 0; h < 5; ++h)
        for (std::size_t w = 0; w < 5; ++w) {
          const double v = y.at({b, c, h, w});
          sum += v;
          sq += v * v;
          ++count;
        }
    EXPECT_NEAR(sum / count, 0.0, 1e-4);
    EXPECT_NEAR(sq / count, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  bn.set_training(true);
  // Feed a constant-distribution batch many times so running stats converge.
  Rng rng(4);
  Tensor x({8, 1, 4, 4});
  for (int it = 0; it < 60; ++it) {
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = static_cast<float>(rng.normal(2.0, 0.5));
    bn.forward(x);
  }
  bn.set_training(false);
  Tensor probe({1, 1, 1, 1});
  probe[0] = 2.0f;  // at the running mean -> output ~beta = 0
  const Tensor y = bn.forward(probe);
  EXPECT_NEAR(y[0], 0.0f, 0.15f);
}

TEST(BatchNorm2d, GammaBetaAffectOutput) {
  BatchNorm2d bn(1);
  bn.params()[0]->value[0] = 2.0f;  // gamma
  bn.params()[1]->value[0] = 1.0f;  // beta
  Tensor x({2, 1, 2, 2});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i);
  const Tensor y = bn.forward(x);
  // Normalized values scaled by 2 and shifted by 1: mean of outputs == beta.
  double mean = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) mean += y[i];
  EXPECT_NEAR(mean / static_cast<double>(y.size()), 1.0, 1e-5);
}

TEST(BatchNorm2d, ParamCountIsTwoPerChannel) {
  BatchNorm2d bn(24);
  EXPECT_EQ(bn.num_params(), 48u);
}

TEST(GELU, ReferenceValues) {
  // Reference values of the tanh approximation.
  EXPECT_NEAR(GELU::value(0.0f), 0.0f, 1e-7f);
  EXPECT_NEAR(GELU::value(1.0f), 0.8412f, 1e-3f);
  EXPECT_NEAR(GELU::value(-1.0f), -0.1588f, 1e-3f);
  EXPECT_NEAR(GELU::value(3.0f), 2.9964f, 1e-3f);
}

TEST(GELU, DerivativeMatchesFiniteDifference) {
  for (float x : {-2.0f, -0.5f, 0.0f, 0.7f, 2.5f}) {
    const float eps = 1e-3f;
    const float numeric = (GELU::value(x + eps) - GELU::value(x - eps)) /
                          (2.0f * eps);
    EXPECT_NEAR(GELU::derivative(x), numeric, 1e-3f);
  }
}

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  const Tensor y = relu.forward(Tensor::from_vector({-1.0f, 0.0f, 2.0f}));
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
}

TEST(Activations, BackwardAfterAnEvalForwardFailsTheForwardCheck) {
  // Inference keeps no backward cache, and an eval forward drops the one a
  // training forward left: backward then fails the "backward before
  // forward" precondition instead of differentiating a stale input.
  const Tensor v = Tensor::from_vector({-1.0f, 0.5f, 2.0f});
  const Tensor nchw = Tensor::from_data({1, 1, 2, 2}, {1, -2, 3, 0.5f});
  const Tensor row = Tensor::from_data({1, 2}, {0.5f, -1});
  GELU gelu;
  ReLU relu;
  Conv2d conv(1, 2, 3, 1, 1);
  Linear linear(2, 3);
  MaxPool2d pool(2);
  const struct {
    Module* m;
    const Tensor& x;
  } cases[] = {{&gelu, v}, {&relu, v}, {&conv, nchw}, {&linear, row},
               {&pool, nchw}};
  for (const auto& c : cases) {
    Module& m = *c.m;
    m.set_training(true);
    const Tensor g(m.forward(c.x).shape(), 1.0f);
    EXPECT_NO_THROW(m.backward(g)) << m.name();
    m.set_training(false);
    m.forward(c.x);
    try {
      m.backward(g);
      ADD_FAILURE() << m.name() << "::backward after an eval forward";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("backward before forward"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(MaxPool2d, SelectsWindowMaximum) {
  MaxPool2d pool(2);
  const Tensor x = Tensor::from_data({1, 1, 2, 4}, {1, 5, 2, 0,  //
                                                    3, 4, 8, 7});
  const Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), (omniboost::tensor::Shape{1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[1], 8.0f);
}

TEST(MaxPool2d, FloorSemanticsDropTrailing) {
  MaxPool2d pool(2);
  const Tensor y = pool.forward(Tensor({1, 1, 5, 7}));
  EXPECT_EQ(y.extent(2), 2u);
  EXPECT_EQ(y.extent(3), 3u);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  const Tensor x = Tensor::from_data({1, 1, 2, 2}, {1, 9, 3, 2});
  pool.forward(x);
  Tensor g({1, 1, 1, 1});
  g[0] = 5.0f;
  const Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[1], 5.0f);  // position of the 9
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

TEST(GlobalAvgPool, AveragesPlane) {
  GlobalAvgPool gap;
  const Tensor x = Tensor::from_data({1, 2, 1, 2}, {2, 4, 10, 30});
  const Tensor y = gap.forward(x);
  EXPECT_EQ(y.shape(), (omniboost::tensor::Shape{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[1], 20.0f);
}

TEST(Flatten, CollapsesTrailingDims) {
  Flatten flat;
  const Tensor y = flat.forward(Tensor({2, 3, 4, 5}));
  EXPECT_EQ(y.shape(), (omniboost::tensor::Shape{2, 60}));
  const Tensor g = flat.backward(Tensor({2, 60}));
  EXPECT_EQ(g.shape(), (omniboost::tensor::Shape{2, 3, 4, 5}));
}

TEST(Sequential, ComposesAndCollectsParams) {
  Sequential seq;
  seq.emplace<Conv2d>(1, 2, 3, 1, 1);
  seq.emplace<GELU>();
  seq.emplace<GlobalAvgPool>();
  seq.emplace<Linear>(2, 3);
  const Tensor y = seq.forward(Tensor({2, 1, 6, 6}));
  EXPECT_EQ(y.shape(), (omniboost::tensor::Shape{2, 3}));
  EXPECT_EQ(seq.num_params(), (1u * 2 * 9 + 2) + (2u * 3 + 3));
  EXPECT_EQ(seq.size(), 4u);
}

TEST(Residual, AddsIdentitySkip) {
  auto body = std::make_unique<Sequential>();
  body->emplace<GELU>();
  Residual res(std::move(body));
  const Tensor x = Tensor::from_vector({1.0f, -1.0f});
  const Tensor y = res.forward(x);
  EXPECT_NEAR(y[0], 1.0f + GELU::value(1.0f), 1e-6f);
  EXPECT_NEAR(y[1], -1.0f + GELU::value(-1.0f), 1e-6f);
}

TEST(Residual, RejectsShapeChangingBody) {
  auto body = std::make_unique<Sequential>();
  body->emplace<Linear>(4, 2);
  Residual res(std::move(body));
  EXPECT_THROW(res.forward(Tensor({1, 4})), std::invalid_argument);
}

TEST(Module, BatchedForwardMatchesPerSampleForward) {
  // The leading dimension is a true batch axis: in inference mode every
  // layer computes samples independently, so forwarding a stacked batch is
  // bit-identical to forwarding each sample alone. predict_batch and the
  // MCTS expansion waves rely on this contract (docs/ESTIMATOR.md).
  Rng rng(31);
  const auto random_input = [&rng](omniboost::tensor::Shape shape) {
    Tensor t(std::move(shape));
    for (std::size_t i = 0; i < t.size(); ++i)
      t[i] = static_cast<float>(rng.normal());
    return t;
  };

  const auto check = [&](Module& layer, const omniboost::tensor::Shape& s) {
    layer.set_training(false);
    constexpr std::size_t kBatch = 5;
    std::vector<Tensor> samples;
    for (std::size_t b = 0; b < kBatch; ++b) samples.push_back(random_input(s));
    const Tensor batched = layer.forward(omniboost::tensor::stack(samples));
    for (std::size_t b = 0; b < kBatch; ++b) {
      const Tensor single =
          layer.forward(omniboost::tensor::stack({samples[b]}));
      ASSERT_EQ(single.size() * kBatch, batched.size()) << layer.name();
      for (std::size_t i = 0; i < single.size(); ++i)
        EXPECT_EQ(single[i], batched[b * single.size() + i])
            << layer.name() << " sample " << b << " element " << i;
    }
  };

  Conv2d conv(3, 4, 3, 1, 1);
  conv.init(rng);
  check(conv, {3, 6, 7});

  Linear fc(10, 4);
  fc.init(rng);
  check(fc, {10});

  BatchNorm2d bn(3);
  {  // give the running statistics a real history first
    bn.set_training(true);
    bn.forward(random_input({4, 3, 5, 5}));
  }
  check(bn, {3, 5, 5});

  GELU gelu;
  check(gelu, {3, 4, 4});
  ReLU relu;
  check(relu, {3, 4, 4});
  MaxPool2d pool(2);
  check(pool, {3, 6, 6});
  GlobalAvgPool gap;
  check(gap, {3, 4, 4});
}

TEST(Module, ZeroGradClearsAccumulation) {
  Linear fc(2, 2);
  Rng rng(5);
  fc.init(rng);
  fc.forward(Tensor({1, 2}, 1.0f));
  fc.backward(Tensor({1, 2}, 1.0f));
  bool any_nonzero = false;
  for (Param* p : fc.params())
    for (std::size_t i = 0; i < p->grad.size(); ++i)
      any_nonzero |= p->grad[i] != 0.0f;
  EXPECT_TRUE(any_nonzero);
  fc.zero_grad();
  for (Param* p : fc.params())
    for (std::size_t i = 0; i < p->grad.size(); ++i)
      EXPECT_EQ(p->grad[i], 0.0f);
}

}  // namespace

// Property-based verification of every analytic backward pass against
// central finite differences. These tests prove the training substrate the
// throughput estimator relies on.

#include <gtest/gtest.h>

#include "nn/gradcheck.hpp"
#include "nn/layers.hpp"
#include "util/rng.hpp"

namespace {

using namespace omniboost::nn;
using omniboost::nn::KernelKind;
using omniboost::tensor::Shape;
using omniboost::tensor::Tensor;
using omniboost::util::Rng;

Tensor random_tensor(const Shape& shape, Rng& rng, double scale = 1.0) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.uniform(-scale, scale));
  return t;
}

/// Runs a gradient check and asserts both input and parameter gradients.
void expect_gradients_ok(Module& m, const Tensor& x, Rng& rng,
                         double tol = 2e-2) {
  const Tensor probe = m.forward(x);
  const Tensor target = random_tensor(probe.shape(), rng);
  MSELoss mse;
  const GradCheckResult r = check_gradients(m, x, target, mse);
  EXPECT_LT(r.max_input_err, tol) << "input gradient mismatch";
  EXPECT_LT(r.max_param_err, tol) << "parameter gradient mismatch";
}

/// Both lowerings of a multi-kernel layer must pass the same checks
/// (nn/kernel.hpp: reference is the bit-frozen paper path, gemm the
/// im2col+GEMM lowering).
const KernelKind kBothKernels[] = {KernelKind::kReference, KernelKind::kGemm};

struct ConvCase {
  std::size_t in_ch, out_ch, kernel, stride, pad, h, w;
};

class ConvGradCheck : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradCheck, MatchesFiniteDifference) {
  const ConvCase c = GetParam();
  for (const KernelKind kind : kBothKernels) {
    Rng rng(17);
    Conv2d conv(c.in_ch, c.out_ch, c.kernel, c.stride, c.pad);
    conv.init(rng);
    conv.set_kernel(kind);
    const Tensor x = random_tensor({2, c.in_ch, c.h, c.w}, rng);
    SCOPED_TRACE(kernel_name(kind));
    expect_gradients_ok(conv, x, rng);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvGradCheck,
    ::testing::Values(ConvCase{1, 1, 3, 1, 1, 5, 5},   // same padding
                      ConvCase{2, 3, 3, 1, 0, 6, 6},   // valid padding
                      ConvCase{3, 2, 3, 2, 1, 7, 9},   // strided
                      ConvCase{2, 2, 1, 1, 0, 4, 4},   // pointwise
                      ConvCase{1, 2, 5, 1, 2, 7, 7},   // large kernel
                      ConvCase{2, 1, 3, 2, 0, 8, 6})); // strided valid

TEST(GradCheck, LinearLayer) {
  for (const KernelKind kind : kBothKernels) {
    Rng rng(23);
    Linear fc(5, 3);
    fc.init(rng);
    fc.set_kernel(kind);
    SCOPED_TRACE(kernel_name(kind));
    expect_gradients_ok(fc, random_tensor({4, 5}, rng), rng);
  }
}

TEST(GradCheck, LinearWithoutBias) {
  for (const KernelKind kind : kBothKernels) {
    Rng rng(29);
    Linear fc(4, 2, /*bias=*/false);
    fc.init(rng);
    fc.set_kernel(kind);
    SCOPED_TRACE(kernel_name(kind));
    expect_gradients_ok(fc, random_tensor({3, 4}, rng), rng);
  }
}

TEST(GradCheck, BatchNorm) {
  Rng rng(31);
  BatchNorm2d bn(3);
  bn.set_training(true);
  // Non-trivial gamma/beta so their gradients are exercised.
  bn.params()[0]->value.fill(1.3f);
  bn.params()[1]->value.fill(-0.2f);
  expect_gradients_ok(bn, random_tensor({3, 3, 4, 4}, rng), rng, 3e-2);
}

TEST(GradCheck, Gelu) {
  Rng rng(37);
  GELU gelu;
  expect_gradients_ok(gelu, random_tensor({2, 3, 4, 4}, rng), rng);
}

TEST(GradCheck, ReluAwayFromKink) {
  Rng rng(41);
  ReLU relu;
  // Keep probes away from 0 where ReLU is non-differentiable.
  Tensor x = random_tensor({2, 8}, rng);
  x.apply([](float v) { return v + (v >= 0.0f ? 0.5f : -0.5f); });
  expect_gradients_ok(relu, x, rng);
}

TEST(GradCheck, MaxPoolAwayFromTies) {
  Rng rng(43);
  MaxPool2d pool(2);
  // Distinct values avoid argmax flips under the finite-difference step.
  Tensor x({1, 2, 4, 4});
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<float>(i) * 0.37f +
           static_cast<float>(rng.uniform(0.0, 0.05));
  expect_gradients_ok(pool, x, rng);
}

TEST(GradCheck, GlobalAvgPool) {
  Rng rng(47);
  GlobalAvgPool gap;
  expect_gradients_ok(gap, random_tensor({2, 3, 3, 5}, rng), rng);
}

TEST(GradCheck, ResidualBlock) {
  for (const KernelKind kind : kBothKernels) {
    Rng rng(59);
    auto body = std::make_unique<Sequential>();
    body->emplace<Conv2d>(2, 2, 3, 1, 1);
    body->emplace<GELU>();
    Residual res(std::move(body));
    res.init(rng);
    res.set_kernel(kind);  // exercises container propagation
    SCOPED_TRACE(kernel_name(kind));
    expect_gradients_ok(res, random_tensor({2, 2, 4, 4}, rng), rng);
  }
}

TEST(GradCheck, EstimatorStyleComposite) {
  // A miniature of the throughput estimator: conv+BN+GELU, pool, residual,
  // GAP, linear head. Verifies gradient flow through the full stack, under
  // both compute kernels.
  for (const KernelKind kind : kBothKernels) {
    Rng rng(61);
    // (no pooling layer here: a finite-difference step can flip a pooling
    // argmax and poison the comparison; MaxPool has its own dedicated check)
    Sequential net;
    net.emplace<Conv2d>(3, 4, 3, 1, 1);
    net.emplace<BatchNorm2d>(4);
    net.emplace<GELU>();
    auto body = std::make_unique<Sequential>();
    body->emplace<Conv2d>(4, 4, 3, 1, 1);
    body->emplace<GELU>();
    net.add(std::make_unique<Residual>(std::move(body)));
    net.emplace<GlobalAvgPool>();
    net.emplace<Linear>(4, 3);
    net.init(rng);
    net.set_training(true);
    net.set_kernel(kind);
    SCOPED_TRACE(kernel_name(kind));
    // fp32 curvature through stacked BN/GELU loosens the comparison slightly.
    expect_gradients_ok(net, random_tensor({3, 3, 6, 8}, rng), rng, 6e-2);
  }
}

TEST(GradCheck, L1LossGradient) {
  // d|p-t|/dp = sign(p-t)/N.
  L1Loss l1;
  const Tensor pred = Tensor::from_vector({1.0f, -2.0f, 3.0f, 0.5f});
  const Tensor tgt = Tensor::from_vector({0.0f, 0.0f, 5.0f, 0.5f});
  const LossResult r = l1.compute(pred, tgt);
  EXPECT_FLOAT_EQ(r.value, (1.0f + 2.0f + 2.0f + 0.0f) / 4.0f);
  EXPECT_FLOAT_EQ(r.grad[0], 0.25f);
  EXPECT_FLOAT_EQ(r.grad[1], -0.25f);
  EXPECT_FLOAT_EQ(r.grad[2], -0.25f);
  EXPECT_FLOAT_EQ(r.grad[3], 0.0f);
}

TEST(GradCheck, MSELossGradient) {
  MSELoss mse;
  const Tensor pred = Tensor::from_vector({2.0f, -1.0f});
  const Tensor tgt = Tensor::from_vector({0.0f, 0.0f});
  const LossResult r = mse.compute(pred, tgt);
  EXPECT_FLOAT_EQ(r.value, (4.0f + 1.0f) / 2.0f);
  EXPECT_FLOAT_EQ(r.grad[0], 2.0f * 2.0f / 2.0f);
  EXPECT_FLOAT_EQ(r.grad[1], 2.0f * -1.0f / 2.0f);
}

TEST(GradCheck, LossShapeMismatchThrows) {
  L1Loss l1;
  EXPECT_THROW(
      l1.compute(Tensor::from_vector({1.0f}), Tensor::from_vector({1.0f, 2.0f})),
      std::invalid_argument);
}

}  // namespace

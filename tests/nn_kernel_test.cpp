// The kernel-selection contract (nn/kernel.hpp):
//  * gemm vs reference and simd vs gemm parity for Conv2d / Linear,
//    forward and backward, across adversarial shapes
//  * the GELU inference lowering: the gemm/simd rational tanh within
//    1e-6 * max(1, |x|) of the exact scalar, NaN propagation, and bit-exact
//    reference inference and training under every kind
//  * bit-determinism of each kernel kind run-to-run
//  * end-to-end estimator parity (<= 1e-6 gemm, <= 1e-5 simd) on every zoo
//    model
//  * cpuid dispatch: kSimd degrades to kGemm (with a recorded note, no
//    throw) on hosts without the ISA
//  * the {kernel = reference, batch_size = 1, workers = 1} bit-parity
//    regression against the paper's sequential search, on 3 seeds

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "core/dataset.hpp"
#include "core/omniboost.hpp"
#include "models/zoo.hpp"
#include "nn/kernel.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "sim/des.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace {

using namespace omniboost;
using nn::KernelKind;
using tensor::Tensor;

Tensor random_tensor(const tensor::Shape& shape, util::Rng& rng) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(static_cast<double>(a[i]) - b[i]));
  return m;
}

TEST(KernelKnob, NamesRoundTrip) {
  EXPECT_STREQ(nn::kernel_name(KernelKind::kReference), "reference");
  EXPECT_STREQ(nn::kernel_name(KernelKind::kGemm), "gemm");
  EXPECT_STREQ(nn::kernel_name(KernelKind::kSimd), "simd");
  EXPECT_EQ(nn::parse_kernel_name("reference"), KernelKind::kReference);
  EXPECT_EQ(nn::parse_kernel_name("gemm"), KernelKind::kGemm);
  EXPECT_EQ(nn::parse_kernel_name("simd"), KernelKind::kSimd);
  EXPECT_THROW(nn::parse_kernel_name("avx2"), std::invalid_argument);
}

TEST(KernelKnob, SimdDispatchDegradesWithANoteNeverAThrow) {
  // The resolution rule must agree with the runtime cpuid probe: on a host
  // with the ISA kSimd is served as requested (empty note); without it the
  // request degrades to kGemm and the note says so. Either way the layer
  // math must run — tensor::gemm_simd falls back internally.
  EXPECT_EQ(nn::resolve_kernel(KernelKind::kReference),
            KernelKind::kReference);
  EXPECT_EQ(nn::resolve_kernel(KernelKind::kGemm), KernelKind::kGemm);
  EXPECT_TRUE(nn::kernel_resolution_note(KernelKind::kReference).empty());
  EXPECT_TRUE(nn::kernel_resolution_note(KernelKind::kGemm).empty());
  if (tensor::simd_supported()) {
    EXPECT_EQ(nn::resolve_kernel(KernelKind::kSimd), KernelKind::kSimd);
    EXPECT_TRUE(nn::kernel_resolution_note(KernelKind::kSimd).empty());
    EXPECT_STRNE(tensor::simd_isa(), "none");
  } else {
    EXPECT_EQ(nn::resolve_kernel(KernelKind::kSimd), KernelKind::kGemm);
    const std::string note = nn::kernel_resolution_note(KernelKind::kSimd);
    EXPECT_NE(note.find("simd"), std::string::npos);
    EXPECT_NE(note.find("gemm"), std::string::npos);
    EXPECT_STREQ(tensor::simd_isa(), "none");
  }
  // Degraded or not, a kSimd layer must forward without throwing and match
  // the gemm lowering.
  util::Rng rng(71), rng2(71), data_rng(3);
  nn::Conv2d simd(3, 4, 3, 1, 1);
  nn::Conv2d gemm(3, 4, 3, 1, 1);
  simd.init(rng);
  gemm.init(rng2);
  simd.set_kernel(KernelKind::kSimd);
  gemm.set_kernel(KernelKind::kGemm);
  const Tensor x = random_tensor({2, 3, 6, 7}, data_rng);
  Tensor y;
  EXPECT_NO_THROW(y = simd.forward(x));
  EXPECT_LT(max_abs_diff(y, gemm.forward(x)), 1e-5);
}

TEST(KernelKnob, LayersCaptureTheProcessDefault) {
  const KernelKind before = nn::default_kernel();
  nn::set_default_kernel(KernelKind::kReference);
  nn::Conv2d conv(2, 2, 3);
  EXPECT_EQ(conv.kernel_kind(), KernelKind::kReference);
  nn::set_default_kernel(KernelKind::kGemm);
  nn::Linear fc(4, 2);
  EXPECT_EQ(fc.kernel_kind(), KernelKind::kGemm);
  nn::GELU gelu;
  EXPECT_EQ(gelu.kernel_kind(), KernelKind::kGemm);
  conv.set_kernel(KernelKind::kGemm);
  EXPECT_EQ(conv.kernel_kind(), KernelKind::kGemm);
  nn::set_default_kernel(before);
}

struct ConvCase {
  std::size_t in_ch, out_ch, kernel, stride, pad, h, w;
};

// Adversarial spread: non-square inputs, stride > 1, padding > 0, 1x1
// (im2col identity fast path), wide kernels, single channels.
const ConvCase kConvCases[] = {
    {1, 1, 1, 1, 0, 5, 7},   // pointwise, non-square
    {3, 8, 1, 1, 0, 9, 4},   // pointwise fast path, many channels
    {2, 3, 3, 1, 1, 6, 6},   // same padding
    {3, 2, 3, 2, 1, 7, 9},   // strided, non-square
    {2, 4, 3, 3, 0, 9, 11},  // stride 3 valid
    {1, 2, 5, 1, 2, 7, 8},   // wide kernel, heavy padding
    {4, 4, 3, 2, 2, 5, 5},   // padding > kernel/2
    {2, 2, 4, 2, 1, 10, 6},  // even kernel
};

class ConvKernelParity : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvKernelParity, ForwardAndBackwardMatchReference) {
  const ConvCase c = GetParam();
  for (const std::size_t batch : {1u, 3u}) {
    util::Rng rng(101);
    nn::Conv2d ref(c.in_ch, c.out_ch, c.kernel, c.stride, c.pad);
    ref.init(rng);
    ref.set_kernel(KernelKind::kReference);
    util::Rng rng2(101);
    nn::Conv2d gemm(c.in_ch, c.out_ch, c.kernel, c.stride, c.pad);
    gemm.init(rng2);  // identical weights
    gemm.set_kernel(KernelKind::kGemm);
    util::Rng rng3(101);
    nn::Conv2d simd(c.in_ch, c.out_ch, c.kernel, c.stride, c.pad);
    simd.init(rng3);  // identical weights
    simd.set_kernel(KernelKind::kSimd);

    util::Rng data_rng(7);
    const Tensor x = random_tensor({batch, c.in_ch, c.h, c.w}, data_rng);
    const Tensor ya = ref.forward(x);
    const Tensor yb = gemm.forward(x);
    const Tensor yc = simd.forward(x);
    EXPECT_LT(max_abs_diff(ya, yb), 1e-5) << "forward, batch " << batch;
    EXPECT_LT(max_abs_diff(yb, yc), 1e-5) << "simd forward, batch " << batch;

    const Tensor g = random_tensor(ya.shape(), data_rng);
    ref.zero_grad();
    gemm.zero_grad();
    simd.zero_grad();
    const Tensor gxa = ref.backward(g);
    const Tensor gxb = gemm.backward(g);
    const Tensor gxc = simd.backward(g);
    EXPECT_LT(max_abs_diff(gxa, gxb), 1e-4) << "grad input, batch " << batch;
    EXPECT_LT(max_abs_diff(gxb, gxc), 1e-4)
        << "simd grad input, batch " << batch;
    const auto pa = ref.params();
    const auto pb = gemm.params();
    const auto pc = simd.params();
    ASSERT_EQ(pa.size(), pb.size());
    ASSERT_EQ(pa.size(), pc.size());
    for (std::size_t p = 0; p < pa.size(); ++p) {
      EXPECT_LT(max_abs_diff(pa[p]->grad, pb[p]->grad), 1e-4)
          << "param grad " << p << ", batch " << batch;
      EXPECT_LT(max_abs_diff(pb[p]->grad, pc[p]->grad), 1e-4)
          << "simd param grad " << p << ", batch " << batch;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConvKernelParity,
                         ::testing::ValuesIn(kConvCases));

TEST(ConvKernelParity, EachKindIsBitDeterministic) {
  util::Rng rng(33);
  util::Rng data_rng(5);
  const Tensor x = random_tensor({2, 3, 8, 9}, data_rng);
  for (const KernelKind kind :
       {KernelKind::kReference, KernelKind::kGemm, KernelKind::kSimd}) {
    nn::Conv2d conv(3, 5, 3, 2, 1);
    conv.init(rng);
    conv.set_kernel(kind);
    const Tensor a = conv.forward(x);
    const Tensor b = conv.forward(x);
    EXPECT_EQ(a, b) << nn::kernel_name(kind) << " forward not bit-stable";
  }
}

TEST(LinearKernelParity, ForwardAndBackwardMatchReference) {
  for (const bool bias : {true, false}) {
    util::Rng rng(55);
    nn::Linear ref(13, 7, bias);
    ref.init(rng);
    ref.set_kernel(KernelKind::kReference);
    util::Rng rng2(55);
    nn::Linear gemm(13, 7, bias);
    gemm.init(rng2);
    gemm.set_kernel(KernelKind::kGemm);
    util::Rng rng3(55);
    nn::Linear simd(13, 7, bias);
    simd.init(rng3);
    simd.set_kernel(KernelKind::kSimd);

    util::Rng data_rng(9);
    const Tensor x = random_tensor({5, 13}, data_rng);
    const Tensor ya = ref.forward(x);
    const Tensor yb = gemm.forward(x);
    const Tensor yc = simd.forward(x);
    EXPECT_LT(max_abs_diff(ya, yb), 1e-5);
    EXPECT_LT(max_abs_diff(yb, yc), 1e-5);

    const Tensor g = random_tensor(ya.shape(), data_rng);
    ref.zero_grad();
    gemm.zero_grad();
    simd.zero_grad();
    const Tensor gxa = ref.backward(g);
    const Tensor gxb = gemm.backward(g);
    const Tensor gxc = simd.backward(g);
    EXPECT_LT(max_abs_diff(gxa, gxb), 1e-5);
    EXPECT_LT(max_abs_diff(gxb, gxc), 1e-5);
    const auto pa = ref.params();
    const auto pb = gemm.params();
    const auto pc = simd.params();
    ASSERT_EQ(pa.size(), pb.size());
    ASSERT_EQ(pa.size(), pc.size());
    for (std::size_t p = 0; p < pa.size(); ++p) {
      EXPECT_LT(max_abs_diff(pa[p]->grad, pb[p]->grad), 1e-5);
      EXPECT_LT(max_abs_diff(pb[p]->grad, pc[p]->grad), 1e-5);
    }
  }
}

// --- GELU inference lowering -------------------------------------------------

/// GELU forward of \p xs, as one rank-1 tensor, under \p kind.
Tensor gelu_forward(KernelKind kind, const std::vector<float>& xs,
                    bool training) {
  nn::GELU gelu;
  gelu.set_kernel(kind);
  gelu.set_training(training);
  return gelu.forward(Tensor::from_vector(xs));
}

std::uint32_t float_bits(float v) {
  std::uint32_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::size_t bit_mismatches(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    n += float_bits(a[i]) != float_bits(b[i]);
  return n;
}

/// [-20, 20] in 1e-4 steps, plus the edges of the rational tanh: signed
/// zeros, denormals and tiny inputs, the inputs whose tanh argument lands on
/// the +-7.90531 clamp (with their float neighbours), and large magnitudes.
std::vector<float> gelu_probe_inputs() {
  std::vector<float> xs;
  for (int i = -200000; i <= 200000; ++i)
    xs.push_back(static_cast<float>(i * 1e-4));
  for (const float t :
       {0.0f, std::numeric_limits<float>::denorm_min(), 1e-40f,
        std::numeric_limits<float>::min(), 1e-7f, 1e-4f, 4e-4f, 1e-3f, 1e3f}) {
    xs.push_back(t);
    xs.push_back(-t);
  }
  // Newton on sqrt(2/pi) * (x + 0.044715 x^3) = 7.90531 (the clamp).
  const double k = 0.7978845608028654, c = 0.044715;
  double r = 3.0;
  for (int it = 0; it < 50; ++it)
    r -= (k * (r + c * r * r * r) - 7.90531110763549805) /
         (k * (1.0 + 3.0 * c * r * r));
  float e = static_cast<float>(r);
  for (int step = 0; step < 4; ++step) e = std::nextafter(e, 0.0f);
  for (int step = 0; step < 9; ++step) {
    xs.push_back(e);
    xs.push_back(-e);
    e = std::nextafter(e, 100.0f);
  }
  return xs;
}

TEST(GeluKernel, FastInferenceWithin1e6RelativeOfTheExactScalar) {
  const std::vector<float> xs = gelu_probe_inputs();
  for (const KernelKind kind : {KernelKind::kGemm, KernelKind::kSimd}) {
    const Tensor y = gelu_forward(kind, xs, /*training=*/false);
    ASSERT_EQ(y.size(), xs.size());
    double worst = 0.0;  // error in units of max(1, |x|); NaN counts as worst
    float worst_x = 0.0f;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double err =
          std::fabs(static_cast<double>(y[i]) - nn::GELU::value(xs[i])) /
          std::max(1.0, std::fabs(static_cast<double>(xs[i])));
      if (!(err <= worst)) {
        worst = err;
        worst_x = xs[i];
      }
    }
    EXPECT_LE(worst, 1e-6) << nn::kernel_name(kind) << " at x = " << worst_x;
  }
}

TEST(GeluKernel, NanPropagatesUnderEveryKind) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const KernelKind kind :
       {KernelKind::kReference, KernelKind::kGemm, KernelKind::kSimd}) {
    for (const bool training : {false, true}) {
      const Tensor y = gelu_forward(kind, {1.0f, nan, -nan, 2.0f}, training);
      EXPECT_TRUE(std::isnan(y[1])) << nn::kernel_name(kind);
      EXPECT_TRUE(std::isnan(y[2])) << nn::kernel_name(kind);
      EXPECT_FALSE(std::isnan(y[0]) || std::isnan(y[3]));
    }
  }
}

TEST(GeluKernel, ReferenceInferenceIsBitExact) {
  const std::vector<float> xs = gelu_probe_inputs();
  Tensor exact = Tensor::from_vector(xs);
  for (std::size_t i = 0; i < exact.size(); ++i)
    exact[i] = nn::GELU::value(exact[i]);
  EXPECT_EQ(bit_mismatches(gelu_forward(KernelKind::kReference, xs, false),
                           exact),
            0u);
}

TEST(GeluKernel, TrainingIsBitExactUnderEveryKind) {
  // Design-time training never sees the rational tanh: forward and backward
  // under gemm/simd are the reference computation, bit for bit.
  const std::vector<float> xs = gelu_probe_inputs();
  util::Rng rng(41);
  const Tensor g = random_tensor({xs.size()}, rng);
  nn::GELU ref;
  ref.set_kernel(KernelKind::kReference);
  const Tensor y_ref = ref.forward(Tensor::from_vector(xs));
  const Tensor gx_ref = ref.backward(g);
  for (const KernelKind kind : {KernelKind::kGemm, KernelKind::kSimd}) {
    nn::GELU gelu;
    gelu.set_kernel(kind);
    EXPECT_EQ(bit_mismatches(gelu.forward(Tensor::from_vector(xs)), y_ref), 0u)
        << nn::kernel_name(kind);
    EXPECT_EQ(bit_mismatches(gelu.backward(g), gx_ref), 0u)
        << nn::kernel_name(kind);
  }
}

// --- end-to-end estimator parity ---------------------------------------------

class EstimatorKernelParity : public ::testing::Test {
 protected:
  static const models::ModelZoo& zoo() {
    static const models::ModelZoo z;
    return z;
  }
  static const core::EmbeddingTensor& embedding() {
    // CostModel keeps a pointer into the spec: a temporary here would be a
    // stack-use-after-scope (caught by the ASan CI flavor).
    static const device::DeviceSpec spec = device::make_hikey970();
    static const device::CostModel cost(spec);
    static const core::EmbeddingTensor e(zoo(), cost);
    return e;
  }
};

TEST_F(EstimatorKernelParity, WithinTolerance1e6OnEveryZooModel) {
  core::ThroughputEstimator ref(embedding().models_dim(),
                                embedding().layers_dim());
  ref.set_kernel(KernelKind::kReference);
  core::ThroughputEstimator gemm(embedding().models_dim(),
                                 embedding().layers_dim());
  gemm.set_kernel(KernelKind::kGemm);

  util::Rng rng(23);
  for (const models::ModelId id : models::kAllModels) {
    const workload::Workload w{{id}};
    for (int i = 0; i < 2; ++i) {
      const Tensor input = embedding().masked_input(
          w, workload::random_mapping(rng, zoo(), w, 3));
      const auto a = ref.predict_normalized(input);
      const auto b = gemm.predict_normalized(input);
      for (std::size_t d = 0; d < 3; ++d)
        EXPECT_NEAR(a[d], b[d], 1e-6)
            << models::model_name(id) << " output " << d;
    }
  }
  // Mixed multi-DNN inputs too.
  for (int i = 0; i < 4; ++i) {
    const workload::Workload w = workload::random_mix(rng, 4);
    const Tensor input = embedding().masked_input(
        w, workload::random_mapping(rng, zoo(), w, 3));
    EXPECT_NEAR(ref.predict_reward(input), gemm.predict_reward(input), 1e-6);
  }
}

TEST_F(EstimatorKernelParity, SimdWithinTolerance1e5OnEveryZooModel) {
  // The ISSUE-level end-to-end bound for the micro-kernel path: <= 1e-5
  // against the gemm lowering on every zoo model (silent degradation makes
  // this trivially exact on hosts without the ISA).
  core::ThroughputEstimator gemm(embedding().models_dim(),
                                 embedding().layers_dim());
  gemm.set_kernel(KernelKind::kGemm);
  core::ThroughputEstimator simd(embedding().models_dim(),
                                 embedding().layers_dim());
  simd.set_kernel(KernelKind::kSimd);

  util::Rng rng(23);
  for (const models::ModelId id : models::kAllModels) {
    const workload::Workload w{{id}};
    for (int i = 0; i < 2; ++i) {
      const Tensor input = embedding().masked_input(
          w, workload::random_mapping(rng, zoo(), w, 3));
      const auto a = gemm.predict_normalized(input);
      const auto b = simd.predict_normalized(input);
      for (std::size_t d = 0; d < 3; ++d)
        EXPECT_NEAR(a[d], b[d], 1e-5)
            << models::model_name(id) << " output " << d;
    }
  }
  for (int i = 0; i < 4; ++i) {
    const workload::Workload w = workload::random_mix(rng, 4);
    const Tensor input = embedding().masked_input(
        w, workload::random_mapping(rng, zoo(), w, 3));
    EXPECT_NEAR(gemm.predict_reward(input), simd.predict_reward(input), 1e-5);
  }
}

// --- the bit-parity regression -----------------------------------------------

TEST_F(EstimatorKernelParity, ReferenceKernelReproducesThePaperPathOn3Seeds) {
  // {kernel = reference, batch_size = 1, workers = 1} through the production
  // scheduler must replay the seed tree's sequential search bit-for-bit:
  // train under the reference kernel, then compare against the pre-batching
  // scalar/uncached search over the very same estimator instance. The
  // scheduler is handed no kernel of its own: the estimator's kernel is the
  // search's kernel.
  const device::DeviceSpec spec = device::make_hikey970();
  const sim::DesSimulator board(spec);
  core::DatasetConfig dc;
  dc.samples = 60;
  const core::SampleSet data =
      core::generate_dataset(zoo(), embedding(), board, dc);
  auto est = std::make_shared<core::ThroughputEstimator>(
      embedding().models_dim(), embedding().layers_dim());
  est->set_kernel(KernelKind::kReference);
  nn::L1Loss l1;
  nn::TrainConfig tc;
  tc.epochs = 4;
  est->fit(data, 10, l1, tc);

  const workload::Workload w{{models::ModelId::kVgg16,
                              models::ModelId::kAlexNet,
                              models::ModelId::kMobileNet}};
  for (const std::uint64_t seed : {3u, 5u, 7u}) {
    core::OmniBoostConfig cfg;
    cfg.mcts.budget = 150;
    cfg.mcts.seed = seed;
    cfg.batch_size = 1;
    cfg.workers = 1;
    core::OmniBoostScheduler sched(zoo(), embedding(), est, cfg);
    const auto got = sched.schedule(w);

    core::MctsConfig reference = cfg.mcts;
    reference.cache = false;  // pre-memo accounting and evaluator call count
    const core::MappingEvaluator scalar = [&](const sim::Mapping& m) {
      return est->predict_reward(embedding().masked_input(w, m));
    };
    const core::MctsResult want =
        core::Mcts(w.layer_counts(zoo()), scalar, reference).search();

    EXPECT_EQ(got.mapping, want.best_mapping) << "seed " << seed;
    EXPECT_EQ(got.expected_reward, want.best_reward) << "seed " << seed;
    EXPECT_EQ(got.evaluations + got.cache_hits, want.evaluations)
        << "seed " << seed;
  }
}

}  // namespace

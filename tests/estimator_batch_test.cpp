// Batched estimator inference and the batched/memoized search path:
//  * predict_batch parity with per-sample predict across all zoo models
//  * the {batch_size = 1, workers = 1} determinism regression against the
//    paper's sequential (scalar, uncached) search
//  * identical rewards for identical mappings under batched/cached configs

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/dataset.hpp"
#include "core/omniboost.hpp"
#include "models/zoo.hpp"
#include "nn/kernel.hpp"
#include "nn/loss.hpp"
#include "sim/des.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace {

using namespace omniboost;
using models::ModelId;
using models::ModelZoo;
using workload::Workload;

const ModelZoo& zoo() {
  static const ModelZoo z;
  return z;
}

const core::EmbeddingTensor& embedding() {
  // CostModel keeps a pointer into the spec, so the spec must outlive it —
  // a make_hikey970() temporary here is a stack-use-after-scope (caught by
  // the ASan CI flavor).
  static const device::DeviceSpec spec = device::make_hikey970();
  static const device::CostModel cost(spec);
  static const core::EmbeddingTensor e(zoo(), cost);
  return e;
}

/// A quickly-trained estimator shared by the search-path tests (the
/// regression checks compare search trajectories, not estimator accuracy).
std::shared_ptr<const core::ThroughputEstimator> trained_estimator() {
  static const auto est = [] {
    const device::DeviceSpec spec = device::make_hikey970();
    const sim::DesSimulator board(spec);
    core::DatasetConfig dc;
    dc.samples = 60;
    const core::SampleSet data =
        core::generate_dataset(zoo(), embedding(), board, dc);
    auto e = std::make_shared<core::ThroughputEstimator>(
        embedding().models_dim(), embedding().layers_dim());
    nn::L1Loss l1;
    nn::TrainConfig tc;
    tc.epochs = 4;
    e->fit(data, 10, l1, tc);
    return e;
  }();
  return est;
}

TEST(PredictBatch, MatchesPerSamplePredictAcrossZooModels) {
  // One single-model workload per zoo DNN, several random mappings each:
  // under every kernel kind the batched forward must reproduce the scalar
  // path bit for bit on every output (the nn/module.hpp batch contract; for
  // the vectorized GELU it also guards the loop's tail handling).
  core::ThroughputEstimator est(embedding().models_dim(),
                                embedding().layers_dim());
  util::Rng rng(23);
  std::vector<tensor::Tensor> inputs;
  for (ModelId id : models::kAllModels) {
    const Workload w{{id}};
    for (int i = 0; i < 3; ++i)
      inputs.push_back(embedding().masked_input(
          w, workload::random_mapping(rng, zoo(), w, 3)));
  }
  // Plus mixed multi-DNN batches.
  for (int i = 0; i < 6; ++i) {
    const Workload w = workload::random_mix(rng, 4);
    inputs.push_back(embedding().masked_input(
        w, workload::random_mapping(rng, zoo(), w, 3)));
  }

  for (const nn::KernelKind kind :
       {nn::KernelKind::kReference, nn::KernelKind::kGemm}) {
    est.set_kernel(kind);
    const auto batched = est.predict_batch(inputs);
    const auto rewards = est.predict_rewards(inputs);
    ASSERT_EQ(batched.size(), inputs.size());
    ASSERT_EQ(rewards.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const auto scalar = est.predict(inputs[i]);
      for (std::size_t d = 0; d < 3; ++d)
        EXPECT_EQ(batched[i][d], scalar[d])
            << nn::kernel_name(kind) << " sample " << i << " output " << d;
      EXPECT_EQ(rewards[i], est.predict_reward(inputs[i]))
          << nn::kernel_name(kind) << " sample " << i;
    }
  }

  EXPECT_TRUE(est.predict_batch({}).empty());
  // Shape validation applies per sample.
  EXPECT_THROW(est.predict_batch({tensor::Tensor({2, 2, 2})}),
               std::invalid_argument);
}

TEST(PredictBatch, RepeatedInputsYieldIdenticalOutputs) {
  // Bitwise reproducibility of the forward pass: the evaluation memo relies
  // on a mapping's reward being a single well-defined double.
  core::ThroughputEstimator est(embedding().models_dim(),
                                embedding().layers_dim());
  util::Rng rng(29);
  const Workload w = workload::random_mix(rng, 3);
  const tensor::Tensor input = embedding().masked_input(
      w, workload::random_mapping(rng, zoo(), w, 3));
  const auto rewards =
      est.predict_rewards({input, input, input});
  ASSERT_EQ(rewards.size(), 3u);
  EXPECT_EQ(rewards[0], rewards[1]);
  EXPECT_EQ(rewards[1], rewards[2]);
  EXPECT_EQ(rewards[0], est.predict_reward(input));
}

TEST(SequentialRegression, Batch1Workers1MatchesThePaperPath) {
  // The pre-PR seed path: a scalar evaluator in a strictly sequential,
  // uncached search. {batch_size = 1, workers = 1} through the production
  // scheduler (batched evaluator plumbing + memo enabled) must reproduce it
  // bit-for-bit, for every seed.
  const auto est = trained_estimator();
  const Workload w{{ModelId::kVgg16, ModelId::kAlexNet, ModelId::kMobileNet}};

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

TEST(SequentialRegression, BatchedAndCachedConfigsAgreeOnRewards) {
  // Wider waves change which mappings the search visits, but never what a
  // given mapping is worth: the decision's reward must re-evaluate to the
  // exact same double through the scalar path.
  const auto est = trained_estimator();
  const Workload w{{ModelId::kResNet34, ModelId::kSqueezeNet}};

  for (const std::size_t batch : {1u, 4u, 16u}) {
    core::OmniBoostConfig cfg;
    cfg.mcts.budget = 120;
    cfg.mcts.seed = 11;
    cfg.batch_size = batch;
    core::OmniBoostScheduler sched(zoo(), embedding(), est, cfg);
    const auto r = sched.schedule(w);
    EXPECT_EQ(r.evaluations + r.cache_hits, 120u);
    EXPECT_TRUE(r.mapping.within_stage_limit(3));
    EXPECT_EQ(r.expected_reward,
              est->predict_reward(embedding().masked_input(w, r.mapping)))
        << "batch " << batch;

    // Same config, second run: decisions are deterministic under batching.
    const auto again = sched.schedule(w);
    EXPECT_EQ(r.mapping, again.mapping) << "batch " << batch;
  }
}

}  // namespace

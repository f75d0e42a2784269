// Root-parallelized MCTS: budget splitting, seed forking, estimator
// cloning, and determinism regardless of thread scheduling.

#include <gtest/gtest.h>

#include <memory>

#include "core/dataset.hpp"
#include "core/omniboost.hpp"
#include "models/zoo.hpp"
#include "nn/loss.hpp"
#include "sim/analytic.hpp"

namespace {

using namespace omniboost;
using models::ModelId;
using models::ModelZoo;
using workload::Workload;

const ModelZoo& zoo() {
  static const ModelZoo z;
  return z;
}

std::shared_ptr<const sim::AnalyticModel> analytic() {
  static const auto model =
      std::make_shared<const sim::AnalyticModel>(device::make_hikey970());
  return model;
}

/// Thread-safe oracle factory (AnalyticModel::evaluate is const and pure).
core::EvaluatorFactory oracle_factory(const Workload& w) {
  const sim::NetworkList nets = w.resolve(zoo());
  return [nets]() -> core::MappingEvaluator {
    return [nets](const sim::Mapping& m) {
      return analytic()->evaluate(nets, m).avg_throughput;
    };
  };
}

TEST(ParallelMcts, SingleWorkerMatchesSequentialSearch) {
  const Workload w{{ModelId::kAlexNet, ModelId::kSqueezeNet}};
  core::MctsConfig cfg;
  cfg.budget = 120;
  cfg.seed = 9;

  const auto factory = oracle_factory(w);
  const core::MctsResult parallel =
      core::parallel_mcts_search(w.layer_counts(zoo()), factory, cfg, 1);

  core::Mcts sequential(w.layer_counts(zoo()), factory(), cfg);
  const core::MctsResult plain = sequential.search();

  EXPECT_EQ(parallel.best_mapping, plain.best_mapping);
  EXPECT_DOUBLE_EQ(parallel.best_reward, plain.best_reward);
  EXPECT_EQ(parallel.evaluations, plain.evaluations);
  EXPECT_EQ(parallel.cache_hits, plain.cache_hits);
}

TEST(ParallelMcts, BudgetSplitsExactlyAcrossWorkers) {
  const Workload w{{ModelId::kAlexNet, ModelId::kMobileNet}};
  core::MctsConfig cfg;
  cfg.budget = 103;  // deliberately not divisible by 4
  const auto r = core::parallel_mcts_search(w.layer_counts(zoo()),
                                            oracle_factory(w), cfg, 4);
  EXPECT_EQ(r.evaluations + r.cache_hits, 103u);
  EXPECT_EQ(r.iterations, 103u);
  EXPECT_TRUE(r.best_mapping.within_stage_limit(3));
}

TEST(ParallelMcts, DeterministicAcrossRuns) {
  const Workload w{{ModelId::kVgg16, ModelId::kAlexNet}};
  core::MctsConfig cfg;
  cfg.budget = 160;
  cfg.seed = 77;
  const auto a = core::parallel_mcts_search(w.layer_counts(zoo()),
                                            oracle_factory(w), cfg, 4);
  const auto b = core::parallel_mcts_search(w.layer_counts(zoo()),
                                            oracle_factory(w), cfg, 4);
  EXPECT_EQ(a.best_mapping, b.best_mapping);
  EXPECT_DOUBLE_EQ(a.best_reward, b.best_reward);
}

TEST(ParallelMcts, MergedRewardIsBestOfWorkers) {
  // Re-evaluating the returned mapping must reproduce the merged reward
  // (the merge picks a worker's argmax, it never fabricates a value).
  const Workload w{{ModelId::kResNet34, ModelId::kSqueezeNet}};
  core::MctsConfig cfg;
  cfg.budget = 140;
  const auto r = core::parallel_mcts_search(w.layer_counts(zoo()),
                                            oracle_factory(w), cfg, 4);
  const double measured =
      analytic()->evaluate(w.resolve(zoo()), r.best_mapping).avg_throughput;
  EXPECT_NEAR(r.best_reward, measured, 1e-9);
}

TEST(ParallelMcts, RejectsDegenerateConfigs) {
  const Workload w{{ModelId::kAlexNet}};
  core::MctsConfig cfg;
  cfg.budget = 2;
  EXPECT_THROW(core::parallel_mcts_search(w.layer_counts(zoo()),
                                          oracle_factory(w), cfg, 0),
               std::invalid_argument);
  EXPECT_THROW(core::parallel_mcts_search(w.layer_counts(zoo()),
                                          oracle_factory(w), cfg, 4),
               std::invalid_argument);  // budget < workers
  EXPECT_THROW(core::parallel_mcts_search(w.layer_counts(zoo()), nullptr, cfg,
                                          1),
               std::invalid_argument);
}

TEST(ParallelMcts, WorkerErrorsPropagate) {
  const Workload w{{ModelId::kAlexNet}};
  core::MctsConfig cfg;
  cfg.budget = 40;
  const core::EvaluatorFactory throwing = []() -> core::MappingEvaluator {
    return [](const sim::Mapping&) -> double {
      throw std::runtime_error("evaluator exploded");
    };
  };
  EXPECT_THROW(
      core::parallel_mcts_search(w.layer_counts(zoo()), throwing, cfg, 4),
      std::runtime_error);
}

TEST(ParallelMcts, OmniBoostSchedulerEndToEnd) {
  // Full production path: trained estimator, cloned per worker through the
  // serialization path; the parallel decision must be valid, deterministic,
  // and use the full budget.
  const device::DeviceSpec spec = device::make_hikey970();
  const device::CostModel cost(spec);
  const core::EmbeddingTensor embedding(zoo(), cost);
  const sim::DesSimulator board(spec);

  core::DatasetConfig dc;
  dc.samples = 60;
  const core::SampleSet data =
      core::generate_dataset(zoo(), embedding, board, dc);
  auto est = std::make_shared<core::ThroughputEstimator>(
      embedding.models_dim(), embedding.layers_dim());
  nn::L1Loss l1;
  nn::TrainConfig tc;
  tc.epochs = 4;
  est->fit(data, 10, l1, tc);

  core::OmniBoostConfig cfg;
  cfg.mcts.budget = 200;
  cfg.workers = 4;
  core::OmniBoostScheduler sched(zoo(), embedding, est, cfg);

  const Workload w{{ModelId::kVgg16, ModelId::kAlexNet, ModelId::kMobileNet}};
  const auto a = sched.schedule(w);
  const auto b = sched.schedule(w);
  EXPECT_EQ(a.evaluations + a.cache_hits, 200u);
  EXPECT_TRUE(a.mapping.within_stage_limit(3));
  EXPECT_EQ(a.mapping, b.mapping) << "parallel decision not deterministic";

  // Same budget, one worker: same machinery, different tree shape — both
  // must return valid mappings scored by the same estimator.
  core::OmniBoostConfig seq = cfg;
  seq.workers = 1;
  core::OmniBoostScheduler sseq(zoo(), embedding, est, seq);
  const auto c = sseq.schedule(w);
  EXPECT_TRUE(c.mapping.within_stage_limit(3));
}

}  // namespace

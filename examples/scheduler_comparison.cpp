/// \file scheduler_comparison.cpp
/// Side-by-side comparison of every scheduler the library ships — the
/// paper's comparison points (Baseline, MOSAIC, GA) plus the search-strategy
/// family (Greedy, RandomSearch, HillClimb, Annealing) and OmniBoost — on
/// one heavy 4-DNN workload. Shows the central trade-off the paper charts in
/// §V-B: decision cost vs achieved throughput.

#include <cstdio>
#include <iostream>
#include <memory>

#include "core/dataset.hpp"
#include "core/omniboost.hpp"
#include "nn/loss.hpp"
#include "sched/baseline.hpp"
#include "sched/ga.hpp"
#include "sched/greedy.hpp"
#include "sched/local_search.hpp"
#include "sched/mosaic.hpp"
#include "sched/search_common.hpp"
#include "util/table.hpp"

using namespace omniboost;

int main() {
  const workload::Workload mix{
      {models::ModelId::kVgg19, models::ModelId::kResNet50,
       models::ModelId::kInceptionV3, models::ModelId::kMobileNet}};

  models::ModelZoo zoo;
  const device::DeviceSpec spec = device::make_hikey970();
  const device::CostModel cost(spec);
  const core::EmbeddingTensor embedding(zoo, cost);
  const sim::DesSimulator board(spec);

  std::printf("workload: %s\n", mix.describe().c_str());
  std::printf("design time: training the throughput estimator...\n\n");

  core::DatasetConfig dc;
  dc.samples = 200;
  const core::SampleSet data = core::generate_dataset(zoo, embedding, board, dc);
  auto estimator = std::make_shared<core::ThroughputEstimator>(
      embedding.models_dim(), embedding.layers_dim());
  nn::L1Loss l1;
  nn::TrainConfig tc;
  tc.epochs = 50;
  estimator->fit(data, 40, l1, tc);

  const auto factory =
      sched::estimator_evaluator_factory(zoo, embedding, estimator);

  std::vector<std::unique_ptr<core::IScheduler>> schedulers;
  schedulers.push_back(std::make_unique<sched::AllOnScheduler>(
      zoo, device::ComponentId::kGpu, "Baseline"));
  schedulers.push_back(std::make_unique<sched::MosaicScheduler>(zoo, spec));
  schedulers.push_back(std::make_unique<sched::GaScheduler>(zoo, spec));
  schedulers.push_back(std::make_unique<sched::GreedyScheduler>(zoo, spec));
  schedulers.push_back(std::make_unique<sched::RandomSearchScheduler>(
      "RandomSearch", zoo, factory));
  schedulers.push_back(std::make_unique<sched::HillClimbScheduler>(
      "HillClimb", zoo, factory));
  schedulers.push_back(std::make_unique<sched::SimulatedAnnealingScheduler>(
      "Annealing", zoo, factory));
  schedulers.push_back(std::make_unique<core::OmniBoostScheduler>(
      zoo, embedding, estimator));

  const auto nets = mix.resolve(zoo);
  double baseline_t = 0.0;

  util::Table t({"scheduler", "decision (ms)", "queries", "board cost (s)",
                 "T (inf/s)", "vs baseline"});
  for (const auto& s : schedulers) {
    const core::ScheduleResult r = s->schedule(mix);
    const double measured = board.simulate(nets, r.mapping).avg_throughput;
    if (s->name() == "Baseline") baseline_t = measured;
    t.add_row({s->name(), util::fmt(r.decision_seconds * 1e3, 1),
               std::to_string(r.evaluations), util::fmt(r.board_seconds, 0),
               util::fmt(measured, 2),
               baseline_t > 0.0 ? "x" + util::fmt(measured / baseline_t, 2)
                                : "-"});
  }
  t.print(std::cout);

  std::printf("\n'board cost' is simulated on-device measurement time a "
              "measurement-driven scheduler (the GA) would burn per decision "
              "— the overhead §V-B attributes to it. Model-driven schedulers "
              "pay it once, at design time.\n");
  return 0;
}

#pragma once
/// \file local_search.hpp
/// Stochastic single-point search baselines for the design-space exploration
/// ablation: random search, restarting hill climbing, and simulated
/// annealing. All three consume the same per-workload mapping evaluator as
/// the MCTS (estimator, DES oracle, or analytic oracle — see
/// search_common.hpp) and the same evaluation budget, which makes the
/// bench_ablation_search comparison an apples-to-apples answer to "is the
/// tree search actually buying anything over naive sampling?".
///
/// The move set operates on pipeline segments, so every candidate respects
/// the paper's stage limit by construction: reassign one segment's
/// component, shift one segment boundary, or split a segment when stages
/// remain below the cap.

#include <cstdint>

#include "core/scheduler.hpp"
#include "models/zoo.hpp"
#include "sched/search_common.hpp"
#include "util/rng.hpp"

namespace omniboost::sched {

/// Budgeted stochastic search controls (the stage cap is sim::kStageLimit).
struct LocalSearchConfig {
  std::size_t budget = 500;      ///< evaluator queries (matches MCTS budget)
  std::uint64_t seed = 5;
};

/// Segment-level neighbourhood move: mutates one DNN's assignment in place.
/// The result always satisfies the stage limit. Exposed for unit tests.
void perturb_assignment(util::Rng& rng, sim::Assignment& a,
                        std::size_t stage_limit);

/// Pure random sampling: \p budget independent stage-limited mappings, keep
/// the best. The zero-intelligence floor every informed search must beat.
class RandomSearchScheduler final : public core::IScheduler {
 public:
  RandomSearchScheduler(std::string name, const models::ModelZoo& zoo,
                        WorkloadEvaluatorFactory evaluator,
                        LocalSearchConfig config = {});

  std::string name() const override { return name_; }
  core::ScheduleResult schedule(const workload::Workload& w) override;

 private:
  std::string name_;
  const models::ModelZoo* zoo_;
  WorkloadEvaluatorFactory factory_;
  LocalSearchConfig config_;
};

/// First-improvement hill climbing, restarting from a fresh random mapping
/// after 40 consecutive rejected moves.
class HillClimbScheduler final : public core::IScheduler {
 public:
  HillClimbScheduler(std::string name, const models::ModelZoo& zoo,
                     WorkloadEvaluatorFactory evaluator,
                     LocalSearchConfig config = {});

  std::string name() const override { return name_; }
  core::ScheduleResult schedule(const workload::Workload& w) override;

 private:
  std::string name_;
  const models::ModelZoo* zoo_;
  WorkloadEvaluatorFactory factory_;
  LocalSearchConfig config_;
};

/// Simulated annealing with geometric cooling (temperature 0.30 down to
/// 0.005, in relative-improvement units) and relative-delta Metropolis
/// acceptance.
class SimulatedAnnealingScheduler final : public core::IScheduler {
 public:
  SimulatedAnnealingScheduler(std::string name, const models::ModelZoo& zoo,
                              WorkloadEvaluatorFactory evaluator,
                              LocalSearchConfig config = {});

  std::string name() const override { return name_; }
  core::ScheduleResult schedule(const workload::Workload& w) override;

 private:
  std::string name_;
  const models::ModelZoo* zoo_;
  WorkloadEvaluatorFactory factory_;
  LocalSearchConfig config_;
};

}  // namespace omniboost::sched

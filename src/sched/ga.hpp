#pragma once
/// \file ga.hpp
/// Reimplementation of the genetic-algorithm comparison point (Kang et al.,
/// IEEE Access 2020, as characterized in the paper): evolution over
/// layer-to-component chromosomes whose fitness is an on-board measurement of
/// the whole mix, re-run ("retrained") for every queried workload, plus the
/// optimization layer the paper describes that heuristically merges redundant
/// pipeline stages back below the stage limit after crossover/mutation
/// damage.

#include <cstdint>

#include "core/scheduler.hpp"
#include "models/zoo.hpp"
#include "sim/des.hpp"

namespace omniboost::sched {

/// GA hyper-parameters.
struct GaConfig {
  std::size_t population = 8;
  std::size_t generations = 3;
  std::size_t tournament = 3;
  double crossover_rate = 0.9;
  double mutation_rate = 0.02;   ///< per-gene reassignment probability
  std::size_t elitism = 2;       ///< chromosomes copied unchanged
  std::size_t max_stages = 3;
  /// Relative noise of one fitness measurement: on the physical board each
  /// chromosome is timed over a short window, so the GA selects on noisy
  /// observations (a key reason it trails OmniBoost in the paper).
  double fitness_noise = 0.20;
  /// Board seconds consumed per fitness measurement; evaluations x this is
  /// the GA's per-mix "retraining" cost (~5 minutes in the paper).
  double board_seconds_per_eval = 12.0;
  std::uint64_t seed = 1234;
};

/// The GA scheduler. Every fitness evaluation runs the board simulator —
/// the in-simulation analogue of the measurement-driven retraining that
/// makes the GA take ~5 minutes per mix on the physical board.
class GaScheduler final : public core::IScheduler {
 public:
  GaScheduler(const models::ModelZoo& zoo, const device::DeviceSpec& device,
              GaConfig config = {});

  std::string name() const override { return "GA"; }
  core::ScheduleResult schedule(const workload::Workload& w) override;

  /// Merge-repair ("optimization layer"): while a DNN exceeds the stage
  /// limit, its shortest segment is absorbed into the neighbouring segment,
  /// removing redundant pipeline stages. Exposed for unit tests.
  static void repair_stages(sim::Assignment& a, std::size_t max_stages);

 private:
  const models::ModelZoo* zoo_;
  sim::DesSimulator board_;
  GaConfig config_;
};

}  // namespace omniboost::sched

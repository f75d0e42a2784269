#pragma once
/// \file mosaic.hpp
/// Reimplementation of the MOSAIC comparison point (Han et al., PACT 2019,
/// as characterized in the paper): per-component *linear regression* models
/// of layer latency trained on thousands of measured data points, driving a
/// per-DNN slicing search. MOSAIC slices each model independently — it is
/// communication-aware but *contention-unaware*, which is exactly why it
/// overloads the GPU on heavy mixes (paper §V-A).

#include <array>

#include "core/scheduler.hpp"
#include "device/cost_model.hpp"
#include "models/zoo.hpp"

namespace omniboost::sched {

/// Linear layer-latency model: t = w . [flops, traffic, in, out, weights, 1].
struct LinearLatencyModel {
  static constexpr std::size_t kFeatures = 6;
  std::array<double, kFeatures> weights{};

  /// Feature vector of one layer.
  static std::array<double, kFeatures> features(const models::LayerDesc& l);

  double predict(const models::LayerDesc& l) const;
};

/// The MOSAIC scheduler.
class MosaicScheduler final : public core::IScheduler {
 public:
  /// Trains the per-component linear models from 14,000 simulated on-board
  /// layer measurements (paper: "more than 14,000 data points"): cost model
  /// times a fixed 5% relative jitter, seeded. The training cost is recorded
  /// and reported by the run-time bench.
  MosaicScheduler(const models::ModelZoo& zoo,
                  const device::DeviceSpec& device);

  std::string name() const override { return "MOSAIC"; }
  core::ScheduleResult schedule(const workload::Workload& w) override;

  /// Offline data-collection + fit cost in measured board-seconds
  /// (the dominant overhead the paper attributes to MOSAIC).
  double training_board_seconds() const { return training_board_seconds_; }
  std::size_t training_samples() const { return training_samples_; }

  const LinearLatencyModel& component_model(device::ComponentId c) const {
    return model_[device::component_index(c)];
  }

 private:
  /// Best slicing of one DNN given the loads already committed to each
  /// component: enumerates all 1/2/3-stage partitions, scoring each by the
  /// predicted bottleneck load plus communication time (MOSAIC is
  /// communication-aware). Linear latency predictions make this
  /// heterogeneity-aware; adding to a running load vector makes it balance
  /// the mix; but it remains blind to working-set contention and
  /// kernel-dispatch nonlinearity — the gap the paper exploits.
  sim::Assignment slice_network(
      const models::NetworkDesc& net,
      std::array<double, device::kNumComponents>& loads) const;

  const models::ModelZoo* zoo_;
  device::DeviceSpec device_;
  std::array<LinearLatencyModel, device::kNumComponents> model_{};
  double training_board_seconds_ = 0.0;
  std::size_t training_samples_ = 0;
};

}  // namespace omniboost::sched

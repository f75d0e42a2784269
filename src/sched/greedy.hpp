#pragma once
/// \file greedy.hpp
/// Greedy layer-to-component assignment, modelled on the trial-and-error
/// greedy controller the paper cites as related work (Kwon et al., HPCA
/// 2021): layers are visited in order and each is placed on the component
/// that minimizes the marginal finish-time estimate, given the load already
/// committed. The scheduler is deterministic, needs no training, and runs in
/// microseconds — but it is myopic: it never revisits a placement, so it
/// inherits exactly the "space exploration inefficiency" the paper calls out
/// (§III).

#include "core/scheduler.hpp"
#include "device/cost_model.hpp"
#include "models/zoo.hpp"

namespace omniboost::sched {

/// Deterministic greedy list scheduler over layers. DNNs are visited
/// heaviest-first (by total FLOPs), so the big models grab the strong
/// components before the light ones fill them; no placement may open a
/// stage beyond sim::kStageLimit.
class GreedyScheduler final : public core::IScheduler {
 public:
  GreedyScheduler(const models::ModelZoo& zoo, const device::DeviceSpec& device);

  std::string name() const override { return "Greedy"; }
  core::ScheduleResult schedule(const workload::Workload& w) override;

 private:
  const models::ModelZoo* zoo_;
  device::DeviceSpec device_;  ///< owned copy; cost_ points into it
  device::CostModel cost_;
};

}  // namespace omniboost::sched

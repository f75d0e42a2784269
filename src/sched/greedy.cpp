#include "sched/greedy.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>

#include "util/require.hpp"

namespace omniboost::sched {

using device::ComponentId;
using device::kAllComponents;
using device::kNumComponents;

GreedyScheduler::GreedyScheduler(const models::ModelZoo& zoo,
                                 const device::DeviceSpec& device)
    : zoo_(&zoo), device_(device), cost_(device_) {}

core::ScheduleResult GreedyScheduler::schedule(const workload::Workload& w) {
  OB_REQUIRE(w.size() > 0, "GreedyScheduler::schedule: empty workload");
  const auto start = std::chrono::steady_clock::now();

  const sim::NetworkList nets = w.resolve(*zoo_);

  // Visit order: heaviest model first so the dominant pipelines pick their
  // components before the light ones commit load.
  std::vector<std::size_t> order(nets.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return nets[a]->total_flops() > nets[b]->total_flops();
                   });

  // Load committed to each component so far (seconds of work per frame).
  std::array<double, kNumComponents> load{};

  std::vector<sim::Assignment> per_dnn(nets.size());
  core::ScheduleResult result;

  for (const std::size_t d : order) {
    const models::NetworkDesc& net = *nets[d];
    sim::Assignment a(net.num_layers(), ComponentId::kGpu);
    std::size_t stages_open = 0;

    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      const bool can_open_stage = stages_open < sim::kStageLimit;
      ComponentId best = l == 0 ? ComponentId::kGpu : a[l - 1];
      double best_cost = std::numeric_limits<double>::infinity();

      for (const ComponentId c : kAllComponents) {
        const bool continues = l > 0 && c == a[l - 1];
        if (!continues && !can_open_stage) continue;

        const double exec = cost_.layer_time(net.layers[l], c);
        double transfer = 0.0;
        if (l > 0 && !continues) {
          transfer = cost_.transfer_time(net.layers[l - 1].output_bytes(),
                                         a[l - 1], c);
        }
        // Marginal finish-time estimate: the component's accumulated load
        // plus this layer's execution, plus communication.
        const double cand = load[device::component_index(c)] + exec + transfer;
        ++result.evaluations;
        if (cand < best_cost) {
          best_cost = cand;
          best = c;
        }
      }

      const bool opens = l == 0 || best != a[l - 1];
      if (opens) ++stages_open;
      a[l] = best;
      load[device::component_index(best)] +=
          cost_.layer_time(net.layers[l], best);
    }
    per_dnn[d] = std::move(a);
  }

  result.mapping = sim::Mapping(std::move(per_dnn));
  result.decision_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace omniboost::sched

#include "sched/reduce.hpp"

#include "sched/greedy.hpp"
#include "sim/analytic.hpp"
#include "util/require.hpp"

namespace omniboost::sched {

namespace {

/// Byte-for-byte performance equality of two components (name excluded:
/// symmetry is about behaviour, not labels).
bool same_performance(const device::ComponentSpec& a,
                      const device::ComponentSpec& b) {
  return a.peak_gflops == b.peak_gflops && a.mem_bw_gbps == b.mem_bw_gbps &&
         a.kernel_overhead_s == b.kernel_overhead_s &&
         a.efficiency.gemm == b.efficiency.gemm &&
         a.efficiency.direct_conv == b.efficiency.direct_conv &&
         a.efficiency.depthwise == b.efficiency.depthwise &&
         a.efficiency.elementwise == b.efficiency.elementwise &&
         a.working_set_budget_bytes == b.working_set_budget_bytes &&
         a.contention_exponent == b.contention_exponent;
}

}  // namespace

bool ReducedSpace::allows(std::size_t dnn, std::size_t layer,
                          device::ComponentId comp) const {
  for (const device::ComponentId c : allowed[dnn][layer])
    if (c == comp) return true;
  return false;
}

bool ReducedSpace::has_symmetry() const {
  for (std::size_t c = 0; c < device::kNumComponents; ++c)
    if (symmetry_class[c] != c) return true;
  return false;
}

ReducedSpace reduce_search_space(const models::ModelZoo& zoo,
                                 const workload::Workload& w,
                                 const device::DeviceSpec& device,
                                 ReduceConfig config) {
  OB_REQUIRE(w.size() > 0, "reduce_search_space: empty workload");
  OB_REQUIRE(config.stage_limit >= 1, "reduce_search_space: bad stage limit");

  const sim::NetworkList nets = w.resolve(zoo);
  const sim::AnalyticModel model(device);

  ReducedSpace space;

  // Incumbent: the greedy mapping scored by the same analytic objective the
  // probes bound. Anything a probe certifies as strictly worse than an
  // already-achieved objective cannot be optimal.
  GreedyScheduler greedy(zoo, device, GreedyConfig{config.stage_limit});
  const core::ScheduleResult seed = greedy.schedule(w);
  space.incumbent_objective =
      model.evaluate(nets, seed.mapping).avg_throughput;

  const sim::RelaxedBound bound(nets, model.cost_model());

  std::vector<sim::PartialAssignment> probe;
  probe.reserve(nets.size());
  for (const auto* net : nets)
    probe.emplace_back(net->num_layers(), sim::kLayerUnassigned);

  space.allowed.resize(nets.size());
  for (std::size_t d = 0; d < nets.size(); ++d) {
    space.allowed[d].resize(nets[d]->num_layers());
    for (std::size_t l = 0; l < nets[d]->num_layers(); ++l) {
      for (const device::ComponentId comp : device::kAllComponents) {
        ++space.total_choices;
        bool keep = true;
        if (config.dominance) {
          probe[d][l] =
              static_cast<std::int8_t>(device::component_index(comp));
          // Strict comparison: an equal-valued optimum may still pass
          // through this choice, so only a certified deficit prunes.
          keep = bound.upper_bound(probe) >= space.incumbent_objective;
          probe[d][l] = sim::kLayerUnassigned;
        }
        if (keep) {
          space.allowed[d][l].push_back(comp);
        } else {
          ++space.pruned_choices;
        }
      }
      // The greedy mapping itself survives every probe (its achieved value
      // is never above an admissible bound through its own choices), so a
      // layer can never lose all choices.
      OB_ENSURE(!space.allowed[d][l].empty(),
                "reduce_search_space: layer lost every component");
    }
  }

  if (config.symmetry) {
    for (std::size_t c = 0; c < device::kNumComponents; ++c) {
      for (std::size_t rep = 0; rep < c; ++rep) {
        if (same_performance(device.components[rep], device.components[c])) {
          space.symmetry_class[c] = space.symmetry_class[rep];
          break;
        }
      }
    }
  }

  return space;
}

}  // namespace omniboost::sched

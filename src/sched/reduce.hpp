#pragma once
/// \file reduce.hpp
/// Pre-search reduction of the layer-to-component assignment space, in the
/// spirit of the DAG-simplification passes exact schedulers run before
/// searching: shrink the problem, then search the smaller one.
///
/// Two sound reductions are applied:
///
///  1. Dominance by bound probing. A per-layer choice (layer l on component
///     c) is removed only when an ADMISSIBLE upper bound on every mapping
///     containing that single commitment (sim::RelaxedBound) is strictly
///     below an incumbent objective already achieved by GreedyScheduler.
///     Every removed choice therefore provably cannot appear in any optimal
///     mapping. Note the naive rule "drop c when it is never the fastest
///     device for l" is NOT sound under contention — load balancing can make
///     a slower device optimal — which is why probing is used instead.
///
///  2. Symmetry between identical components. When two components have
///     byte-identical performance specs, any mapping maps to an
///     equal-objective mapping under swapping them; exact searches need only
///     visit canonical representatives (first-use order). The collapse is
///     exported as equivalence classes, not list drops: dropping a duplicate
///     component entirely would be unsound (optima may use both at once).
///
/// Consumers: BranchAndBoundScheduler (both reductions) and
/// ExhaustiveScheduler (allowed lists, via ExhaustiveConfig::reduce).

#include <array>
#include <vector>

#include "device/device.hpp"
#include "models/zoo.hpp"
#include "sched/search_common.hpp"
#include "workload/workload.hpp"

namespace omniboost::sched {

/// Reduction controls.
struct ReduceConfig {
  std::size_t stage_limit = 3;  ///< stage cap of the greedy incumbent
  bool dominance = true;        ///< bound-probing removal of per-layer choices
  bool symmetry = true;         ///< identical-component equivalence classes
};

/// The reduced search space of one workload.
struct ReducedSpace {
  /// Surviving components per layer: allowed[dnn][layer], kAllComponents
  /// order. Never empty for any layer (the greedy incumbent's own choice
  /// always survives its own probe).
  std::vector<LayerChoices> allowed;
  /// Equivalence class per component, identified by the smallest member
  /// index; {0, 1, 2} means no two components are identical.
  std::array<std::size_t, device::kNumComponents> symmetry_class{{0, 1, 2}};
  std::size_t total_choices = 0;   ///< per-layer choices before reduction
  std::size_t pruned_choices = 0;  ///< choices removed by dominance probing
  /// Greedy incumbent objective (analytic avg_throughput) the probes were
  /// compared against.
  double incumbent_objective = 0.0;

  bool allows(std::size_t dnn, std::size_t layer,
              device::ComponentId comp) const;

  /// True when at least two components fall in the same symmetry class.
  bool has_symmetry() const;
};

/// Computes the reduced space of \p w on \p device. Deterministic and
/// search-independent: the result may be shared by every consumer scheduling
/// the same workload on the same board.
ReducedSpace reduce_search_space(const models::ModelZoo& zoo,
                                 const workload::Workload& w,
                                 const device::DeviceSpec& device,
                                 ReduceConfig config = {});

}  // namespace omniboost::sched

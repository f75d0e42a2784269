#include "sched/bnb.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <utility>

#include "sched/greedy.hpp"
#include "util/require.hpp"

namespace omniboost::sched {

using device::ComponentId;
using device::kNumComponents;

namespace {

/// Flattened decision coordinates, MCTS order: dnn-after-dnn, layer-after-
/// layer (also the canonical enumeration order of search_common).
struct Coord {
  std::size_t dnn, layer;
};

}  // namespace

BranchAndBoundScheduler::BranchAndBoundScheduler(
    std::string name, const models::ModelZoo& zoo,
    const device::DeviceSpec& device, BnbConfig config)
    : name_(std::move(name)), zoo_(&zoo), model_(device), config_(config) {}

core::ScheduleResult BranchAndBoundScheduler::schedule(
    const workload::Workload& w) {
  return schedule_seeded(w, nullptr);
}

core::ScheduleResult BranchAndBoundScheduler::schedule_seeded(
    const workload::Workload& w, const sim::Mapping* seed) {
  OB_REQUIRE(w.size() > 0, "BranchAndBoundScheduler: empty workload");
  const auto start = std::chrono::steady_clock::now();

  const sim::NetworkList nets = w.resolve(*zoo_);
  const std::vector<std::size_t> counts = w.layer_counts(*zoo_);
  if (seed != nullptr) {
    OB_REQUIRE(seed->num_dnns() == counts.size(),
               "BranchAndBoundScheduler: seed mapping DNN count mismatch");
    for (std::size_t d = 0; d < counts.size(); ++d)
      OB_REQUIRE(seed->assignment(d).size() == counts[d],
                 "BranchAndBoundScheduler: seed mapping layer count mismatch");
  }

  std::vector<Coord> coords;
  for (std::size_t d = 0; d < counts.size(); ++d)
    for (std::size_t l = 0; l < counts[d]; ++l) coords.push_back({d, l});
  const std::size_t total = coords.size();

  const ReducedSpace reduced =
      reduce_search_space(*zoo_, w, model_.cost_model().device());
  const bool symmetry = reduced.has_symmetry();

  const sim::RelaxedBound bound(nets, model_.cost_model());

  core::ScheduleResult result;
  const auto evaluate = [&](const sim::Mapping& m) {
    ++result.evaluations;
    return model_.evaluate(nets, m).avg_throughput;
  };
  // Greedy's mapping seeds the incumbent, so the anytime result is never
  // worse than Greedy's.
  sim::Mapping incumbent =
      GreedyScheduler(*zoo_, model_.cost_model().device()).schedule(w).mapping;
  double incumbent_value = evaluate(incumbent);
  if (seed != nullptr) {
    // The caller's incumbent joins the race: the anytime result can then
    // never be worse than what is already installed.
    const double v = evaluate(*seed);
    if (v > incumbent_value) {
      incumbent_value = v;
      incumbent = *seed;
    }
  }

  std::vector<sim::PartialAssignment> partial;
  partial.reserve(nets.size());
  for (const std::size_t c : counts)
    partial.emplace_back(c, sim::kLayerUnassigned);

  const bool has_deadline = config_.timeout_ms > 0.0;
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double, std::milli>(config_.timeout_ms));

  std::size_t nodes = 0;
  bool stop = false;       // sticky once any budget expires
  bool aborted = false;    // some subtree was left unexplored
  double unexplored_ub = -std::numeric_limits<double>::infinity();
  std::size_t used_count[kNumComponents] = {0, 0, 0};

  const auto budget_exhausted = [&]() {
    if (stop) return true;
    if (config_.max_nodes > 0 && nodes >= config_.max_nodes) stop = true;
    // The clock is sampled every 64 nodes: cheap, and tight enough that a
    // timeout overrun stays far below a millisecond.
    else if (has_deadline && (nodes & 63u) == 0 &&
             std::chrono::steady_clock::now() >= deadline)
      stop = true;
    return stop;
  };

  const auto to_mapping = [&]() {
    std::vector<sim::Assignment> per_dnn;
    per_dnn.reserve(counts.size());
    for (std::size_t d = 0; d < counts.size(); ++d) {
      sim::Assignment a(counts[d], ComponentId::kGpu);
      for (std::size_t l = 0; l < counts[d]; ++l)
        a[l] = static_cast<ComponentId>(partial[d][l]);
      per_dnn.push_back(std::move(a));
    }
    return sim::Mapping(std::move(per_dnn));
  };

  const std::function<void(std::size_t)> dfs = [&](std::size_t depth) {
    if (depth == total) {
      sim::Mapping m = to_mapping();
      const double r = evaluate(m);
      if (r > incumbent_value) {
        incumbent_value = r;
        incumbent = std::move(m);
      }
      return;
    }
    const Coord c = coords[depth];
    // Pipeline stages this DNN has opened so far (prefix fully assigned).
    std::size_t stages = 1;
    for (std::size_t l = 1; l < c.layer; ++l)
      if (partial[c.dnn][l] != partial[c.dnn][l - 1]) ++stages;

    for (const ComponentId comp : reduced.allowed[c.dnn][c.layer]) {
      if (c.layer > 0) {
        const auto prev =
            static_cast<ComponentId>(partial[c.dnn][c.layer - 1]);
        if (comp != prev && stages == sim::kStageLimit) continue;
      }
      const std::size_t ci = device::component_index(comp);
      if (symmetry && used_count[ci] == 0) {
        // Canonical first-use order within each class of identical
        // components: introduce the smallest unused member first. Every
        // skipped branch is a class permutation of a kept one.
        bool skip = false;
        for (std::size_t prior = 0; prior < ci; ++prior)
          if (reduced.symmetry_class[prior] == reduced.symmetry_class[ci] &&
              used_count[prior] == 0)
            skip = true;
        if (skip) continue;
      }

      partial[c.dnn][c.layer] = static_cast<std::int8_t>(ci);
      ++used_count[ci];
      ++nodes;
      const double ub = bound.upper_bound(partial);
      if (ub <= incumbent_value) {
        // Certified: nothing below can strictly beat the incumbent.
      } else if (budget_exhausted()) {
        aborted = true;
        unexplored_ub = std::max(unexplored_ub, ub);
      } else {
        dfs(depth + 1);
      }
      --used_count[ci];
      partial[c.dnn][c.layer] = sim::kLayerUnassigned;
    }
  };
  dfs(0);

  result.mapping = incumbent;
  result.expected_reward = incumbent_value;
  result.lower_bound = incumbent_value;
  result.proved_optimal = !aborted;
  result.upper_bound =
      aborted ? std::max(incumbent_value, unexplored_ub) : incumbent_value;
  result.nodes_expanded = nodes;
  result.decision_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

RefineResult anytime_refine(const models::ModelZoo& zoo,
                            const device::DeviceSpec& device,
                            const workload::Workload& w,
                            const sim::Mapping& seed,
                            const BnbConfig& config) {
  BranchAndBoundScheduler bnb("bnb-refine", zoo, device, config);
  const core::ScheduleResult searched = bnb.schedule_seeded(w, &seed);

  sim::AnalyticModel model(device);
  const sim::NetworkList nets = w.resolve(zoo);
  RefineResult out;
  out.seed_objective = model.evaluate(nets, seed).avg_throughput;
  out.objective = searched.expected_reward;
  out.improved = out.objective > out.seed_objective;
  out.mapping = out.improved ? searched.mapping : seed;
  out.proved_optimal = searched.proved_optimal.value_or(false);
  out.nodes_expanded = searched.nodes_expanded.value_or(0);
  return out;
}

}  // namespace omniboost::sched

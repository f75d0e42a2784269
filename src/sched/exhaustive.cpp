#include "sched/exhaustive.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "util/require.hpp"

namespace omniboost::sched {

namespace {

/// Hard cap on the number of complete mappings one schedule() may evaluate.
constexpr std::size_t kMaxMappings = 2'000'000;

}  // namespace

ExhaustiveScheduler::ExhaustiveScheduler(std::string name,
                                         const models::ModelZoo& zoo,
                                         WorkloadEvaluatorFactory evaluator)
    : name_(std::move(name)), zoo_(&zoo), factory_(std::move(evaluator)) {
  OB_REQUIRE(factory_ != nullptr, "ExhaustiveScheduler: null factory");
}

core::ScheduleResult ExhaustiveScheduler::schedule(const workload::Workload& w) {
  OB_REQUIRE(w.size() > 0, "ExhaustiveScheduler: empty workload");
  const auto start = std::chrono::steady_clock::now();

  const double space = count_mappings(*zoo_, w, sim::kStageLimit);
  OB_REQUIRE(space <= static_cast<double>(kMaxMappings),
             "ExhaustiveScheduler: mapping space exceeds the cap");

  const core::MappingEvaluator evaluate = factory_(w);
  const std::vector<std::size_t> counts = w.layer_counts(*zoo_);

  std::vector<std::vector<sim::Assignment>> per_dnn;
  per_dnn.reserve(counts.size());
  for (const std::size_t layers : counts)
    per_dnn.push_back(
        enumerate_assignments(layers, sim::kStageLimit, kMaxMappings));

  core::ScheduleResult result;
  result.expected_reward = -std::numeric_limits<double>::infinity();

  // Odometer over the Cartesian product of per-DNN assignment lists, last
  // DNN fastest: combined with the canonical per-DNN list order this visits
  // whole mappings in exactly the flattened depth-first order the
  // branch-and-bound scheduler uses, so ties resolve identically.
  std::vector<std::size_t> idx(counts.size(), 0);
  for (;;) {
    std::vector<sim::Assignment> pick;
    pick.reserve(counts.size());
    for (std::size_t d = 0; d < counts.size(); ++d) {
      pick.push_back(per_dnn[d][idx[d]]);
    }
    sim::Mapping m(std::move(pick));
    const double r = evaluate(m);
    ++result.evaluations;
    if (r > result.expected_reward) {
      result.expected_reward = r;
      result.mapping = std::move(m);
    }

    std::size_t d = idx.size();
    bool done = true;
    while (d-- > 0) {
      if (++idx[d] < per_dnn[d].size()) {
        done = false;
        break;
      }
      idx[d] = 0;
    }
    if (done) break;
  }

  result.decision_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace omniboost::sched

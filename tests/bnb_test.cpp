// Exactness and anytime-contract pins for the branch-and-bound reference
// scheduler: on every tractable workload BnB with an unlimited budget must
// reproduce ExhaustiveScheduler's optimum bit-for-bit, and under any budget
// it must return a valid incumbent inside a certified [lower, upper] bound
// interval that contains the true optimum.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "models/zoo.hpp"
#include "sched/bnb.hpp"
#include "sched/exhaustive.hpp"
#include "sched/greedy.hpp"
#include "sim/analytic.hpp"
#include "util/rng.hpp"

namespace {

using namespace omniboost;
using models::ModelId;
using models::ModelZoo;
using workload::Workload;

const ModelZoo& zoo() {
  static const ModelZoo z;
  return z;
}

std::shared_ptr<const sim::AnalyticModel> analytic() {
  static const auto model =
      std::make_shared<const sim::AnalyticModel>(device::make_hikey970());
  return model;
}

sched::WorkloadEvaluatorFactory analytic_factory() {
  return sched::analytic_evaluator_factory(zoo(), analytic());
}

double achieved(const Workload& w, const sim::Mapping& m) {
  return analytic()->evaluate(w.resolve(zoo()), m).avg_throughput;
}

/// Single-model workloads whose full mapping space fits the 3^8 tractability
/// budget the exactness pins are defined over.
std::vector<Workload> tractable_workloads() {
  std::vector<Workload> out;
  for (const ModelId id : models::kAllModels) {
    const std::size_t layers = zoo().network(id).num_layers();
    if (sched::count_assignments(layers, 3) <= 6561.0) out.push_back({{id}});
  }
  return out;
}

core::ScheduleResult exhaustive_opt(const Workload& w) {
  sched::ExhaustiveScheduler exact("exact", zoo(), analytic_factory());
  return exact.schedule(w);
}

// --- Exactness pins --------------------------------------------------------

TEST(BnbExactness, MatchesExhaustiveOnEveryTractableWorkload) {
  for (const Workload& w : tractable_workloads()) {
    const auto exact = exhaustive_opt(w);
    sched::BranchAndBoundScheduler bnb("BnB", zoo(), device::make_hikey970());
    const auto r = bnb.schedule(w);
    EXPECT_DOUBLE_EQ(r.expected_reward, exact.expected_reward)
        << "mix=" << w.describe();
    ASSERT_TRUE(r.proved_optimal.has_value());
    EXPECT_TRUE(*r.proved_optimal) << "mix=" << w.describe();
    ASSERT_TRUE(r.lower_bound && r.upper_bound && r.nodes_expanded);
    EXPECT_DOUBLE_EQ(*r.lower_bound, r.expected_reward);
    EXPECT_DOUBLE_EQ(*r.upper_bound, r.expected_reward);
    EXPECT_GT(*r.nodes_expanded, 0u);
    EXPECT_TRUE(r.mapping.within_stage_limit(3));
    // The reported reward is the achieved analytic objective of the mapping.
    EXPECT_DOUBLE_EQ(r.expected_reward, achieved(w, r.mapping));
  }
}

TEST(BnbExactness, SeededWorkloadPicks) {
  // Three seeded draws over the tractable pool — the pinned "3 seeds" form.
  const auto pool = tractable_workloads();
  ASSERT_FALSE(pool.empty());
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);
    const Workload& w = pool[rng.below(pool.size())];
    const auto exact = exhaustive_opt(w);
    sched::BranchAndBoundScheduler bnb("BnB", zoo(), device::make_hikey970());
    const auto r = bnb.schedule(w);
    EXPECT_DOUBLE_EQ(r.expected_reward, exact.expected_reward)
        << "seed=" << seed << " mix=" << w.describe();
    EXPECT_TRUE(*r.proved_optimal);
  }
}

// --- Anytime contract ------------------------------------------------------

TEST(BnbAnytime, NodeBudgetReturnsCertifiedInterval) {
  const Workload w{{ModelId::kAlexNet}};
  const double opt = exhaustive_opt(w).expected_reward;
  for (const std::size_t max_nodes : {5u, 20u, 100u}) {
    sched::BnbConfig cfg;
    cfg.max_nodes = max_nodes;
    sched::BranchAndBoundScheduler bnb("BnB", zoo(), device::make_hikey970(),
                                       cfg);
    const auto r = bnb.schedule(w);
    ASSERT_TRUE(r.lower_bound && r.upper_bound && r.proved_optimal);
    EXPECT_LE(*r.lower_bound, opt) << "max_nodes=" << max_nodes;
    EXPECT_GE(*r.upper_bound, opt) << "max_nodes=" << max_nodes;
    EXPECT_LE(*r.lower_bound, *r.upper_bound);
    EXPECT_TRUE(r.mapping.within_stage_limit(3));
    EXPECT_DOUBLE_EQ(r.expected_reward, achieved(w, r.mapping));
    // After the budget trips, each level of the unwinding recursion still
    // bounds (folds) its remaining siblings, so allow that small overshoot.
    EXPECT_LE(*r.nodes_expanded, max_nodes + 3 * 11);
  }
}

TEST(BnbAnytime, FiftyMsBudgetNoWorseThanGreedyOnBenchMixes) {
  // The acceptance pin: on every bench-sized workload a 50 ms budget still
  // returns an incumbent at least as good as Greedy plus a valid bound.
  const std::vector<Workload> mixes = {
      {{ModelId::kVgg19, ModelId::kMobileNet, ModelId::kResNet50}},
      {{ModelId::kVgg19, ModelId::kMobileNet, ModelId::kResNet50,
        ModelId::kInceptionV3}},
      {{ModelId::kVgg19, ModelId::kMobileNet, ModelId::kResNet50,
        ModelId::kInceptionV3, ModelId::kAlexNet}},
  };
  sched::GreedyScheduler greedy(zoo(), device::make_hikey970());
  for (const Workload& w : mixes) {
    const double greedy_value = achieved(w, greedy.schedule(w).mapping);
    sched::BnbConfig cfg;
    cfg.timeout_ms = 50.0;
    sched::BranchAndBoundScheduler bnb("BnB", zoo(), device::make_hikey970(),
                                       cfg);
    const auto r = bnb.schedule(w);
    // The incumbent is seeded with the greedy mapping scored by the same
    // objective, so this inequality is exact, not approximate.
    EXPECT_GE(r.expected_reward, greedy_value) << "mix=" << w.describe();
    ASSERT_TRUE(r.lower_bound && r.upper_bound);
    EXPECT_LE(*r.lower_bound, *r.upper_bound);
    EXPECT_GE(*r.upper_bound, r.expected_reward);
    EXPECT_TRUE(r.mapping.within_stage_limit(3));
    // Coarse wall-clock sanity: a 50 ms budget must not blow up into
    // seconds even under sanitizers.
    EXPECT_LT(r.decision_seconds, 5.0);
  }
}

TEST(BnbAnytime, UnlimitedBudgetOnTinySpaceProvesQuickly) {
  const Workload w{{ModelId::kAlexNet}};
  sched::BranchAndBoundScheduler bnb("BnB", zoo(), device::make_hikey970());
  const auto r = bnb.schedule(w);
  EXPECT_TRUE(*r.proved_optimal);
  // Bound pruning must beat plain enumeration of the 603-assignment space.
  EXPECT_LT(static_cast<double>(r.evaluations),
            sched::count_mappings(zoo(), w, 3));
}

}  // namespace

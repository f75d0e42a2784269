// Property tests for the pre-search reduction pass: the reduced space never
// excludes an optimal mapping, and identical-device symmetry preserves the
// objective.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "models/zoo.hpp"
#include "sched/bnb.hpp"
#include "sched/exhaustive.hpp"
#include "sched/greedy.hpp"
#include "sched/reduce.hpp"
#include "sim/analytic.hpp"

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

// --- Soundness: reduction never excludes an optimum ------------------------

TEST(Reduce, NeverExcludesAnOptimalMapping) {
  // Compare on small instances: branch-and-bound, which searches only the
  // reduced space, must prove the optimum of the full enumerated space,
  // bit-for-bit.
  for (const ModelId id :
       {ModelId::kAlexNet, ModelId::kVgg13, ModelId::kResNet34}) {
    const Workload w{{id}};
    sched::ExhaustiveScheduler full("full", zoo(), analytic_factory());
    const auto full_r = full.schedule(w);

    sched::BranchAndBoundScheduler reduced("reduced", zoo(),
                                           device::make_hikey970());
    const auto reduced_r = reduced.schedule(w);

    EXPECT_DOUBLE_EQ(reduced_r.expected_reward, full_r.expected_reward)
        << "mix=" << w.describe();
    EXPECT_TRUE(*reduced_r.proved_optimal) << "mix=" << w.describe();
  }
}

TEST(Reduce, GreedyChoicesAlwaysSurvive) {
  // The probing incumbent is Greedy's own mapping, so by construction its
  // per-layer choices can never be certified worse than itself.
  const std::vector<Workload> mixes = {
      {{ModelId::kAlexNet}},
      {{ModelId::kVgg19, ModelId::kMobileNet}},
      {{ModelId::kVgg19, ModelId::kMobileNet, ModelId::kResNet50}},
  };
  sched::GreedyScheduler greedy(zoo(), device::make_hikey970());
  for (const Workload& w : mixes) {
    const auto space =
        sched::reduce_search_space(zoo(), w, device::make_hikey970());
    const sim::Mapping m = greedy.schedule(w).mapping;
    for (std::size_t d = 0; d < m.num_dnns(); ++d) {
      const sim::Assignment& a = m.assignment(d);
      for (std::size_t l = 0; l < a.size(); ++l) {
        EXPECT_TRUE(space.allows(d, l, a[l]))
            << "mix=" << w.describe() << " dnn=" << d << " layer=" << l;
      }
    }
  }
}

TEST(Reduce, ProbingPrunesChoicesWhereTheIncumbentIsTight) {
  // Dominance probing certifies a choice away when a single committed
  // (layer, comp) pick alone caps the bound below the greedy incumbent. That
  // threshold (1/incumbent seconds) is tight on light workloads with a high
  // incumbent throughput — pin that it actually fires there.
  const Workload light{{ModelId::kAlexNet}};
  const auto tight =
      sched::reduce_search_space(zoo(), light, device::make_hikey970());
  EXPECT_GT(tight.total_choices, 0u);
  EXPECT_GT(tight.pruned_choices, 0u)
      << "dominance probing removed nothing on a light high-throughput mix";
  EXPECT_LT(tight.pruned_choices, tight.total_choices);
  EXPECT_GT(tight.incumbent_objective, 0.0);

  // On heavily contended mixes the incumbent throughput is low, so a single
  // commitment rarely certifies dominance — the pass must stay conservative
  // (sound) there rather than inventing prunes.
  const Workload heavy{
      {ModelId::kVgg19, ModelId::kMobileNet, ModelId::kResNet50}};
  const auto loose =
      sched::reduce_search_space(zoo(), heavy, device::make_hikey970());
  EXPECT_LT(loose.pruned_choices, loose.total_choices);
  EXPECT_GT(loose.incumbent_objective, 0.0);
}

// --- Symmetry --------------------------------------------------------------

TEST(Reduce, IdenticalComponentsCollapseIntoOneClass) {
  // A board whose two CPU clusters are performance-identical: the classes
  // must merge, and searching only canonical representatives must preserve
  // the exact optimum of the full space.
  device::DeviceSpec twin = device::make_hikey970();
  const std::string little_name = twin.components[2].name;
  twin.components[2] = twin.components[1];
  twin.components[2].name = little_name;  // labels must not affect symmetry

  const Workload w{{ModelId::kAlexNet}};
  const auto space = sched::reduce_search_space(zoo(), w, twin);
  EXPECT_TRUE(space.has_symmetry());
  EXPECT_EQ(space.symmetry_class[2], space.symmetry_class[1]);
  EXPECT_NE(space.symmetry_class[1], space.symmetry_class[0]);

  const auto twin_model = std::make_shared<const sim::AnalyticModel>(twin);
  sched::ExhaustiveScheduler full(
      "full", zoo(), sched::analytic_evaluator_factory(zoo(), twin_model));
  const auto full_r = full.schedule(w);

  sched::BranchAndBoundScheduler bnb("BnB", zoo(), twin);
  const auto r = bnb.schedule(w);
  EXPECT_DOUBLE_EQ(r.expected_reward, full_r.expected_reward);
  EXPECT_TRUE(*r.proved_optimal);
}

TEST(Reduce, HikeyHasNoSymmetricComponents) {
  const Workload w{{ModelId::kAlexNet}};
  const auto space =
      sched::reduce_search_space(zoo(), w, device::make_hikey970());
  EXPECT_FALSE(space.has_symmetry());
}

}  // namespace

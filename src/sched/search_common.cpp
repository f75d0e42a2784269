#include "sched/search_common.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/require.hpp"

namespace omniboost::sched {

WorkloadEvaluatorFactory estimator_evaluator_factory(
    const models::ModelZoo& zoo, const core::EmbeddingTensor& embedding,
    std::shared_ptr<const core::ThroughputEstimator> estimator) {
  OB_REQUIRE(estimator != nullptr,
             "estimator_evaluator_factory: null estimator");
  OB_REQUIRE(estimator->trained(),
             "estimator_evaluator_factory: estimator must be trained");
  return [&zoo, &embedding, estimator = std::move(estimator)](
             const workload::Workload& w) -> core::MappingEvaluator {
    (void)zoo;
    return [&embedding, estimator, w](const sim::Mapping& m) {
      return estimator->predict_reward(embedding.masked_input(w, m));
    };
  };
}

WorkloadEvaluatorFactory oracle_evaluator_factory(
    const models::ModelZoo& zoo,
    std::shared_ptr<const sim::DesSimulator> board) {
  OB_REQUIRE(board != nullptr, "oracle_evaluator_factory: null simulator");
  return [&zoo, board = std::move(board)](
             const workload::Workload& w) -> core::MappingEvaluator {
    const sim::NetworkList nets = w.resolve(zoo);
    return [board, nets](const sim::Mapping& m) {
      return board->simulate(nets, m).avg_throughput;
    };
  };
}

WorkloadEvaluatorFactory analytic_evaluator_factory(
    const models::ModelZoo& zoo,
    std::shared_ptr<const sim::AnalyticModel> model) {
  OB_REQUIRE(model != nullptr, "analytic_evaluator_factory: null model");
  return [&zoo, model = std::move(model)](
             const workload::Workload& w) -> core::MappingEvaluator {
    const sim::NetworkList nets = w.resolve(zoo);
    return [model, nets](const sim::Mapping& m) {
      return model->evaluate(nets, m).avg_throughput;
    };
  };
}

namespace {

/// C(n, k) in floating point (exact for the small k we use).
double binomial(std::size_t n, std::size_t k) {
  if (k > n) return 0.0;
  k = std::min(k, n - k);
  double r = 1.0;
  for (std::size_t i = 1; i <= k; ++i) {
    r *= static_cast<double>(n - k + i);
    r /= static_cast<double>(i);
  }
  return r;
}

/// Canonical depth-first emit: layer \p l next, \p stages stages opened so
/// far, components in kAllComponents order.
void emit_assignments(std::size_t l, std::size_t stages,
                      std::size_t stage_limit, const LayerChoices* allowed,
                      sim::Assignment& scratch,
                      std::vector<sim::Assignment>& out) {
  if (l == scratch.size()) {
    out.push_back(scratch);
    return;
  }
  static const std::vector<device::ComponentId> kEveryComponent(
      device::kAllComponents.begin(), device::kAllComponents.end());
  const std::vector<device::ComponentId>& choices =
      allowed != nullptr ? (*allowed)[l] : kEveryComponent;
  for (const device::ComponentId comp : choices) {
    std::size_t next_stages = 1;
    if (l > 0) {
      if (comp == scratch[l - 1]) {
        next_stages = stages;
      } else if (stages == stage_limit) {
        continue;  // opening one more stage would exceed the limit
      } else {
        next_stages = stages + 1;
      }
    }
    scratch[l] = comp;
    emit_assignments(l + 1, next_stages, stage_limit, allowed, scratch, out);
  }
}

}  // namespace

double count_assignments(std::size_t layers, std::size_t stage_limit) {
  OB_REQUIRE(layers >= 1, "count_assignments: zero layers");
  OB_REQUIRE(stage_limit >= 1, "count_assignments: bad stage limit");
  const auto k = static_cast<double>(device::kNumComponents);
  double total = 0.0;
  const std::size_t max_stages = std::min(stage_limit, layers);
  for (std::size_t s = 1; s <= max_stages; ++s) {
    total += binomial(layers - 1, s - 1) * k *
             std::pow(k - 1.0, static_cast<double>(s - 1));
  }
  return total;
}

double count_mappings(const models::ModelZoo& zoo, const workload::Workload& w,
                      std::size_t stage_limit) {
  double total = 1.0;
  for (const std::size_t layers : w.layer_counts(zoo)) {
    total *= count_assignments(layers, stage_limit);
  }
  return total;
}

std::vector<sim::Assignment> enumerate_assignments(std::size_t layers,
                                                   std::size_t stage_limit,
                                                   std::size_t max_count,
                                                   const LayerChoices* allowed) {
  const double count = count_assignments(layers, stage_limit);
  OB_REQUIRE(count <= static_cast<double>(max_count),
             "enumerate_assignments: space exceeds max_count");
  OB_REQUIRE(allowed == nullptr || allowed->size() == layers,
             "enumerate_assignments: allowed-list/layer-count mismatch");
  std::vector<sim::Assignment> out;
  out.reserve(static_cast<std::size_t>(count));
  sim::Assignment scratch(layers, device::ComponentId::kGpu);
  emit_assignments(0, 1, stage_limit, allowed, scratch, out);
  return out;
}

}  // namespace omniboost::sched

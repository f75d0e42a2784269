#pragma once
/// \file exhaustive.hpp
/// Exact enumeration of the stage-limited mapping space. The paper argues
/// (§II, §IV-C) that exhaustive evaluation is infeasible at realistic sizes —
/// this module both *quantifies* that claim (closed-form space counts used by
/// the motivation bench) and, for deliberately tiny workloads, *computes the
/// true optimum*, which the test suite uses to certify how close MCTS and the
/// other searches land.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/scheduler.hpp"
#include "models/zoo.hpp"
#include "sched/reduce.hpp"
#include "sched/search_common.hpp"

namespace omniboost::sched {

/// Exhaustive-search controls. The enumeration helpers formerly declared
/// here (count_assignments, count_mappings, enumerate_assignments) live in
/// sched/search_common.hpp, shared with the branch-and-bound scheduler and
/// the reduce pass so all exact searches agree on one canonical order.
struct ExhaustiveConfig {
  /// Optional pre-computed reduction (sched::reduce_search_space) restricting
  /// per-layer choices. Must match the scheduled workload's shape. Null (the
  /// default) enumerates the full space, preserving the historical
  /// evaluations == count_mappings contract the tests pin.
  std::shared_ptr<const ReducedSpace> reduce;
};

/// The exact optimizer. Only usable on tiny workloads; the ablation tests
/// use it as ground truth. schedule() throws when the workload's space holds
/// more than 2,000,000 mappings; the cap is checked against the UNRESTRICTED
/// space even when a reduction is installed, so reduction never changes
/// which workloads are accepted.
class ExhaustiveScheduler final : public core::IScheduler {
 public:
  ExhaustiveScheduler(std::string name, const models::ModelZoo& zoo,
                      WorkloadEvaluatorFactory evaluator,
                      ExhaustiveConfig config = {});

  std::string name() const override { return name_; }

  /// Evaluates every mapping in the space and returns the argmax.
  core::ScheduleResult schedule(const workload::Workload& w) override;

 private:
  std::string name_;
  const models::ModelZoo* zoo_;
  WorkloadEvaluatorFactory factory_;
  ExhaustiveConfig config_;
};

}  // namespace omniboost::sched

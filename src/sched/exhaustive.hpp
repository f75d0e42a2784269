#pragma once
/// \file exhaustive.hpp
/// Exact enumeration of the stage-limited mapping space. The paper argues
/// (§II, §IV-C) that exhaustive evaluation is infeasible at realistic sizes —
/// this module both *quantifies* that claim (closed-form space counts used by
/// the motivation bench) and, for deliberately tiny workloads, *computes the
/// true optimum*, which the test suite uses to certify how close MCTS and the
/// other searches land.

#include <string>

#include "core/scheduler.hpp"
#include "models/zoo.hpp"
#include "sched/search_common.hpp"

namespace omniboost::sched {

/// The exact optimizer. Only usable on tiny workloads; the ablation tests
/// use it as ground truth. It enumerates the full space (evaluations ==
/// count_mappings) in the canonical order of sched/search_common.hpp, which
/// it shares with the branch-and-bound scheduler, and throws when the
/// workload's space holds more than 2,000,000 mappings.
class ExhaustiveScheduler final : public core::IScheduler {
 public:
  ExhaustiveScheduler(std::string name, const models::ModelZoo& zoo,
                      WorkloadEvaluatorFactory evaluator);

  std::string name() const override { return name_; }

  /// Evaluates every mapping in the space and returns the argmax.
  core::ScheduleResult schedule(const workload::Workload& w) override;

 private:
  std::string name_;
  const models::ModelZoo* zoo_;
  WorkloadEvaluatorFactory factory_;
};

}  // namespace omniboost::sched

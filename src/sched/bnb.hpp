#pragma once
/// \file bnb.hpp
/// Anytime-optimal reference scheduler: depth-first branch-and-bound over
/// per-layer device assignments against the closed-form analytic objective
/// (sim::AnalyticModel::evaluate(...).avg_throughput — the same function the
/// analytic evaluator factory exposes, so its optima are directly comparable
/// with ExhaustiveScheduler ground truth).
///
/// The search maximizes, so the roles are: the INCUMBENT (best complete
/// mapping found so far, seeded by GreedyScheduler) certifies a lower bound
/// on the optimum; the admissible relaxation (sim::RelaxedBound — every
/// uncommitted layer on its best device, contention-free) certifies an upper
/// bound on each subtree. A subtree whose bound cannot strictly beat the
/// incumbent is pruned, which preserves the optimal VALUE exactly.
///
/// Anytime contract: schedule() always returns a valid mapping. When the
/// wall-clock/node budget (BnbConfig::{timeout_ms, max_nodes}) expires the
/// incumbent is returned with proved_optimal=false and upper_bound equal to
/// the max of the incumbent and every unexplored subtree's bound — still a
/// certified interval containing the optimum. With an unexhausted budget
/// proved_optimal=true and lower_bound == upper_bound == expected_reward.

#include <string>

#include "core/scheduler.hpp"
#include "models/zoo.hpp"
#include "sched/reduce.hpp"
#include "sim/analytic.hpp"

namespace omniboost::sched {

/// Branch-and-bound budgets. The rest is fixed: the stage cap is
/// sim::kStageLimit, the incumbent is seeded with GreedyScheduler's mapping
/// (so the anytime result is never worse than Greedy), and the search runs
/// over sched::reduce_search_space's reduced space (dominance-pruned
/// per-layer choices + symmetry-canonical branching), which preserves the
/// optimal value.
struct BnbConfig {
  /// Wall-clock budget in milliseconds; 0 = unlimited. Checked coarsely
  /// (every few dozen nodes), so overruns stay in the microsecond range.
  double timeout_ms = 0.0;
  std::size_t max_nodes = 0;  ///< node budget; 0 = unlimited
};

/// The exact/anytime reference scheduler.
class BranchAndBoundScheduler final : public core::IScheduler {
 public:
  BranchAndBoundScheduler(std::string name, const models::ModelZoo& zoo,
                          const device::DeviceSpec& device,
                          BnbConfig config = {});

  std::string name() const override { return name_; }

  /// Runs the bounded depth-first search; see the anytime contract above.
  core::ScheduleResult schedule(const workload::Workload& w) override;

  /// schedule() with an extra incumbent candidate: \p seed (when non-null)
  /// is evaluated and adopted if it beats the greedy seed, so the anytime
  /// result is never worse than the seed mapping. This is the background
  /// re-search entry point — the serving daemon hands in the mapping
  /// currently installed on a board and gets back either a certified
  /// improvement or the seed itself. The seed's shape must match \p w
  /// (std::invalid_argument otherwise).
  core::ScheduleResult schedule_seeded(const workload::Workload& w,
                                       const sim::Mapping* seed);

 private:
  std::string name_;
  const models::ModelZoo* zoo_;
  sim::AnalyticModel model_;  ///< owns a DeviceSpec copy; non-copyable
  BnbConfig config_;
};

/// Outcome of one budgeted background refinement pass.
struct RefineResult {
  sim::Mapping mapping;         ///< best known: the seed or an improvement
  double objective = 0.0;       ///< analytic avg throughput of `mapping`
  double seed_objective = 0.0;  ///< analytic avg throughput of the seed
  bool improved = false;        ///< mapping strictly beats the seed
  bool proved_optimal = false;  ///< the search ran to exhaustion
  std::size_t nodes_expanded = 0;
};

/// One BnbConfig-budgeted refinement of \p seed for workload \p w on
/// \p device: runs BranchAndBoundScheduler::schedule_seeded and reports
/// whether the search strictly improved on the seed's analytic objective.
/// Pure — no shared state, safe to run on a background thread while the
/// caller keeps serving (the daemon's idle-time hook does exactly that).
RefineResult anytime_refine(const models::ModelZoo& zoo,
                            const device::DeviceSpec& device,
                            const workload::Workload& w,
                            const sim::Mapping& seed, const BnbConfig& config);

}  // namespace omniboost::sched

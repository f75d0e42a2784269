#pragma once
/// \file scheduler.hpp
/// The common interface every multi-DNN scheduler implements: OmniBoost,
/// the GPU-only baseline, MOSAIC and the GA. Benches compare them through
/// this interface and time their decisions.
///
/// Two entry points: schedule() is the paper's one-shot decision for a fixed
/// mix, and reschedule() is the dynamic-scenario form — the serving runtime
/// calls it whenever the mix changes mid-flight, handing the scheduler the
/// previous mapping plus a ScheduleContext describing which streams
/// survived. The default reschedule() falls back to schedule(), so every
/// scheduler is serving-capable; warm-started schedulers (OmniBoost)
/// override it to make incremental decisions cheaper.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "sim/mapping.hpp"
#include "workload/workload.hpp"

namespace omniboost::sim {
class DesSimulator;
class MigrationCostModel;
}  // namespace omniboost::sim

namespace omniboost::core {

/// Outcome of one scheduling decision.
struct ScheduleResult {
  sim::Mapping mapping;
  double expected_reward = 0.0;   ///< scheduler-internal score (0 if none)
  double decision_seconds = 0.0;  ///< wall-clock decision latency
  /// Performance-model / simulator queries actually executed. For
  /// memoizing searchers (OmniBoost's MCTS) repeated visits to an
  /// already-scored mapping are counted in cache_hits instead, so
  /// evaluations + cache_hits is the rollout budget spent.
  std::size_t evaluations = 0;
  std::size_t cache_hits = 0;     ///< queries answered from an evaluation memo
  /// DES candidate replays of an SLO-aware warm decision (OmniBoost's
  /// reschedule with slo_s + board in the context): one simulate_traced
  /// call per distinct candidate the SLO shaping scored, so it equals
  /// evaluations there. Zero for SLO-free decisions and for schedulers
  /// without SLO shaping.
  std::size_t des_replays = 0;
  /// Always 0: replays are not memoized. Kept only because the committed
  /// end-to-end benchmark (bench/e2e) still reads it for its replay
  /// hit-ratio metric.
  std::size_t replay_hits = 0;
  /// Board time a measurement-driven scheduler would burn on the device for
  /// this decision (GA fitness runs). Zero for model-driven schedulers.
  double board_seconds = 0.0;

  /// Optimality-certificate fields, filled only by bounding searches
  /// (sched::BranchAndBoundScheduler). lower_bound is the objective of the
  /// returned incumbent (achieved, hence a certified lower bound on the
  /// optimum); upper_bound is an admissible bound no optimal mapping can
  /// exceed. proved_optimal means the search closed the gap before its
  /// budget ran out — then lower_bound == upper_bound == expected_reward.
  std::optional<double> lower_bound;
  std::optional<double> upper_bound;
  std::optional<bool> proved_optimal;
  /// Search-tree nodes expanded before returning (anytime-budget telemetry).
  std::optional<std::size_t> nodes_expanded;
};

/// Context of an incremental decision in a dynamic scenario
/// (core::ServingRuntime): how the new workload relates to the one the
/// previous mapping was produced for.
struct ScheduleContext {
  /// The workload the previous mapping scheduled. Not read by the built-in
  /// schedulers (carried_from already encodes the old->new stream
  /// relationship), but provided so overrides can interpret carried_from
  /// indices without re-deriving the previous mix — e.g. a warm GA keying
  /// saved populations by mix, or SLO-aware policies comparing mixes.
  workload::Workload previous_workload;
  /// For each stream of the NEW workload: the index of the same model in
  /// previous_workload, or -1 for a stream that just arrived. Mixes are
  /// duplicate-free, so the match is unambiguous.
  std::vector<std::ptrdiff_t> carried_from;
  /// False asks for a cold full-budget decision: warm-started schedulers
  /// must behave exactly like schedule(). The serving runtime sets this
  /// from ServingConfig::warm_start so cold/warm comparisons share one path.
  bool warm_start = true;
  /// Per-stream latency SLOs (seconds), aligned with the NEW workload; 0 =
  /// no SLO for that stream, and an empty vector = no stream has one. SLO-
  /// aware schedulers (OmniBoost's warm search) shape down or hard-prune
  /// candidate mappings whose DES replay breaks any of these.
  std::vector<double> slo_s;
  /// Board model for SLO replays. Null = SLO shaping unavailable: schedulers
  /// MUST then ignore slo_s rather than guess latencies. The serving runtime
  /// always passes its simulator; hand-built contexts may leave it null to
  /// keep the decision bit-identical to the SLO-free path.
  const sim::DesSimulator* board = nullptr;
  /// Churn-cost model the serving runtime measures epochs with (null or
  /// disabled = migrations are free). SLO-aware schedulers fold the same
  /// per-candidate migration stalls into their replays; a one-off stall
  /// cannot change per-frame latency, so it affects the SLO check only
  /// through starvation (a candidate whose own churn would leave an SLO
  /// stream serving zero frames in the window counts as violating) — the
  /// sub-starvation price of churn lands in the runtime's measured T.
  const sim::MigrationCostModel* migration = nullptr;
};

/// A run-time multi-DNN workload manager.
class IScheduler {
 public:
  virtual ~IScheduler() = default;

  /// Display name used in bench tables.
  virtual std::string name() const = 0;

  /// Produces a layer-to-component mapping for the workload.
  virtual ScheduleResult schedule(const workload::Workload& w) = 0;

  /// Contextual rescheduling after a mix change. The base implementation is
  /// the adapter that keeps every one-shot scheduler serving-capable: it
  /// ignores the context and recomputes from scratch via schedule().
  /// Overrides may reuse \p previous (e.g. OmniBoost seeds its search with
  /// the surviving streams' assignments and shrinks the budget), but must
  /// fall back to plain schedule() when ctx.warm_start is false.
  virtual ScheduleResult reschedule(const workload::Workload& w,
                                    const sim::Mapping& previous,
                                    const ScheduleContext& ctx) {
    (void)previous;
    (void)ctx;
    return schedule(w);
  }
};

}  // namespace omniboost::core

#pragma once
/// \file serving.hpp
/// The dynamic serving runtime: replays a workload::Scenario (timestamped
/// model arrivals/departures) against any core::IScheduler, invoking a
/// contextual reschedule() on every mix change, scoring each epoch's mapping
/// on the DES board simulator, and accumulating a ServingReport — per-epoch
/// throughput, decision latency, and *mapping churn* (the fraction of
/// surviving layers whose component assignment moved). This is the layer
/// that turns the paper's one-shot decision into a serving loop; see
/// docs/ARCHITECTURE.md "Serving runtime".
///
/// Two entry points share one epoch engine:
///  - ServingRuntime::run(scheduler, scenario) — the batch replay loop;
///  - ServingSession — the same loop opened up event-by-event, so a driver
///    that interleaves several boards (core::Cluster) can feed each board
///    its own event stream through the *identical* code path. A run() call
///    is exactly "construct a session, apply every event, finish()", so the
///    two are bit-identical by construction (pinned by tests/cluster_test).

#include <cstddef>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "sim/des.hpp"
#include "sim/migration.hpp"
#include "workload/scenario.hpp"

namespace omniboost::core {

/// Runtime controls.
struct ServingConfig {
  /// Passed through as ScheduleContext::warm_start on every incremental
  /// decision: false forces cold full-budget decisions (the churn/latency
  /// comparison baseline), true lets warm-started schedulers shrink their
  /// budget and seed from the previous mapping.
  bool warm_start = true;
  /// Churn-cost model (sim/migration.hpp). When enabled, every incremental
  /// epoch's measurement charges each surviving stream its one-off
  /// migration stall (delayed DES start), and the same model is handed to
  /// the scheduler through ScheduleContext::migration so SLO replays see
  /// identical stalls. Disabled by default: measurements are bit-identical
  /// to the free-churn runtime (pinned by tests/serving_test.cpp).
  sim::MigrationCostConfig migration;
};

/// One epoch = the serving interval that follows one scenario event.
struct EpochReport {
  double time_s = 0.0;       ///< event timestamp
  std::string event;         ///< e.g. "arrive MobileNet"
  std::string mix;           ///< Workload::describe() of the epoch's mix
  std::size_t mix_size = 0;  ///< 0 = idle epoch (no decision was made)
  ScheduleResult decision;   ///< mapping + latency + evaluator accounting
  /// DES-measured average throughput T of the decided mapping (0 for idle
  /// or infeasible epochs).
  double measured_throughput = 0.0;
  bool feasible = true;
  /// Stability accounting over the streams present in BOTH the previous and
  /// this epoch's mix: churn = moved_layers / surviving_layers (0 when
  /// nothing survived, i.e. the first epoch or after an idle one).
  std::size_t surviving_layers = 0;
  std::size_t moved_layers = 0;
  double churn = 0.0;
  /// Latency-SLO accounting. slo_s holds the per-stream SLOs in effect
  /// (seconds, 0 = none, aligned with the epoch's mix); latency_p99_s the
  /// measured p99 frame latency per stream. Both are populated only when at
  /// least one stream of the epoch carries an SLO (slo_streams > 0) — the
  /// SLO-free path never runs the traced simulator.
  std::vector<double> slo_s;
  std::vector<double> latency_p99_s;
  std::size_t slo_streams = 0;     ///< streams with an SLO this epoch
  std::size_t slo_violations = 0;  ///< of those, streams that broke it
  /// Migration-stall accounting (all zeros when ServingConfig::migration is
  /// disabled, when nothing moved, or on cold-start epochs): the one-off
  /// cost charged to this epoch's measurement. Intra-board only — the
  /// cross-board transfer stall a Cluster charges a migrated-in stream is
  /// accounted at fleet level (ClusterReport), not here.
  std::size_t migrated_segments = 0;
  double migration_weight_bytes = 0.0;
  double migration_stall_s = 0.0;  ///< summed over streams
};

/// The whole serving session, plus the aggregates the benches compare.
struct ServingReport {
  /// Every served epoch, in order. Left empty by ServingSession::summary()
  /// (and so by ClusterSession::finish()), which keep only epoch_count.
  std::vector<EpochReport> epochs;
  std::size_t epoch_count = 0;  ///< epochs served, idle ones included

  std::size_t decisions = 0;          ///< epochs that scheduled (non-idle)
  double total_decision_seconds = 0.0;
  /// Mean decision latency over epochs 2..N (the incremental decisions a
  /// warm-started scheduler accelerates; the first decision is always cold).
  double mean_incremental_decision_seconds = 0.0;
  double mean_throughput = 0.0;       ///< over non-idle epochs
  double mean_churn = 0.0;            ///< over epochs with surviving layers
  std::size_t total_evaluations = 0;
  std::size_t total_cache_hits = 0;
  /// DES candidate replays across all SLO-aware warm decisions
  /// (ScheduleResult::des_replays summed over epochs). Zero without SLOs.
  std::size_t total_des_replays = 0;
  /// SLO bookkeeping, in stream-epochs: a stream serving under an SLO for
  /// three epochs contributes three to total_slo_streams (and up to three
  /// violations). 0/0 when the scenario carries no SLOs.
  std::size_t total_slo_streams = 0;
  std::size_t total_slo_violations = 0;
  /// Aggregate one-off migration cost charged across the session (zero with
  /// the churn-cost model disabled).
  std::size_t total_migrated_segments = 0;
  double total_migration_stall_s = 0.0;
};

/// Layer-level stability of a mix change: compares, for every surviving
/// stream d (carried_from[d] >= 0), the new assignment against the previous
/// one, counting layers whose component moved. Returns moved / surviving
/// (0.0 when no layers survived). Exposed for tests and bench drivers.
double mapping_churn(const sim::Mapping& previous,
                     const std::vector<std::ptrdiff_t>& carried_from,
                     const sim::Mapping& next,
                     std::size_t* surviving_layers = nullptr,
                     std::size_t* moved_layers = nullptr);

/// One board's serving loop opened up event-by-event.
///
/// Holds exactly the state ServingRuntime::run keeps between events (the
/// present mix with SLOs, the previous workload/mapping, the running
/// aggregate sums) and applies one ScenarioEvent per call. Events must be
/// legal for the session's current state (arrive only while absent, depart
/// only while present, non-decreasing times) — a Scenario guarantees this
/// for its own stream; a Cluster guarantees it per board by construction.
class ServingSession {
 public:
  /// \param zoo    dataset networks backing every mix
  /// \param board  DES simulator standing in for the physical board. Held by
  ///               reference — must outlive the session.
  ServingSession(const models::ModelZoo& zoo, const sim::DesSimulator& board,
                 ServingConfig config = {});

  /// Applies one event and serves the epoch that follows it: updates the
  /// mix, asks \p scheduler for a mapping (schedule() on the first or
  /// post-idle decision, reschedule() with a full ScheduleContext
  /// otherwise), measures it on the board, and returns the epoch's report
  /// (valid until the next apply()).
  ///
  /// \param arrival_stall_s one-off extra DES start delay charged to the
  ///   arriving stream of an arrive event (cross-board weight transfer when
  ///   a Cluster migrates a stream in). 0.0 — the default and the only value
  ///   ServingRuntime::run ever passes — leaves the measurement bit-identical
  ///   to the pre-session runtime. Must be 0.0 for depart events.
  const EpochReport& apply(IScheduler& scheduler,
                           const workload::ScenarioEvent& event,
                           double arrival_stall_s = 0.0);

  /// Re-decides and re-measures the CURRENT mix without changing it — the
  /// fault-reaction hook core::Cluster uses when a board's speed changes
  /// (throttle/recover) under live streams. Runs the identical epoch engine
  /// as apply(): a reschedule() with identity carried_from (every stream
  /// survives in place) against the previous mapping, then a fresh DES
  /// measurement at the board's current throttle. \p label becomes the
  /// epoch's event string. Only legal while not idle().
  const EpochReport& refresh(IScheduler& scheduler, double time_s,
                             const std::string& label);

  /// Forcibly removes every resident stream without serving an epoch — the
  /// board-failure hook. The next decision (if the board returns to
  /// service) starts cold, exactly like the post-idle path: a rebooted
  /// board holds no weights, so nothing can be warm. Callers wanting the
  /// evicted streams (to fail them over) must snapshot present() /
  /// present_slo_s() first.
  void evict_all();

  /// Finalizes the aggregate means and returns the report for everything
  /// applied so far. The session stays usable (finish() is a snapshot).
  ServingReport finish() const;

  /// finish() without the per-epoch list: the aggregates and epoch_count,
  /// at a cost that does not grow with the number of epochs served.
  ServingReport summary() const;

  /// The streams currently on the board (arrival order), with their SLOs
  /// (seconds, 0 = none) index-aligned.
  const std::vector<models::ModelId>& present() const { return present_; }
  const std::vector<double>& present_slo_s() const { return present_slo_s_; }
  bool idle() const { return present_.empty(); }
  std::size_t epochs_applied() const { return epochs_.size(); }
  /// DES throughput measured by the most recent non-idle epoch (0 before
  /// the first decision or right after an idle epoch) — placement policies
  /// read this as the board's live load signal.
  double last_measured_throughput() const { return last_throughput_; }
  /// The mapping the most recent non-idle epoch installed (valid only while
  /// has_previous()); false before the first decision and right after an
  /// idle epoch or evict_all(). The serving daemon's background re-search
  /// seeds its refinement from exactly this mapping.
  const sim::Mapping& previous_mapping() const { return prev_mapping_; }
  bool has_previous() const { return have_prev_; }
  const sim::DesSimulator& board() const { return *board_; }
  const ServingConfig& config() const { return config_; }
  const sim::MigrationCostModel& migration_model() const { return migration_; }

 private:
  /// Shared epoch engine: decides (schedule or reschedule), measures, and
  /// accumulates one non-idle epoch for the current mix. \p ep arrives with
  /// time_s/event prefilled; apply() and refresh() both end here, so the two
  /// stay bit-identical on the paths they share.
  const EpochReport& serve_epoch(IScheduler& scheduler, EpochReport ep,
                                 double arrival_stall_s);

  const models::ModelZoo* zoo_;
  const sim::DesSimulator* board_;
  ServingConfig config_;
  sim::MigrationCostModel migration_;

  // Serving state: the mix currently on the board (with each stream's SLO,
  // index-aligned) and its mapping.
  std::vector<models::ModelId> present_;
  std::vector<double> present_slo_s_;
  workload::Workload prev_w_;
  sim::Mapping prev_mapping_;
  bool have_prev_ = false;

  // Running aggregates finish() turns into means.
  std::size_t incremental_ = 0;
  double incremental_seconds_ = 0.0;
  double throughput_sum_ = 0.0;
  std::size_t churn_epochs_ = 0;
  double churn_sum_ = 0.0;
  double last_throughput_ = 0.0;

  std::vector<EpochReport> epochs_;
  ServingReport report_;  ///< running sums; its epochs list stays empty
};

/// Event loop that serves a Scenario with one scheduler.
///
/// Epoch semantics: after each event the runtime rebuilds the concurrent
/// mix, asks the scheduler for a mapping — schedule() for the first decision
/// (or after an idle epoch), reschedule() with a populated ScheduleContext
/// otherwise — and measures the mapping on the board simulator. A
/// single-event scenario therefore reproduces IScheduler::schedule()
/// bit-for-bit for every scheduler, warm or cold (pinned by
/// tests/serving_test.cpp).
class ServingRuntime {
 public:
  /// \param zoo    dataset networks backing every mix
  /// \param board  DES simulator standing in for the physical board
  ServingRuntime(const models::ModelZoo& zoo, const sim::DesSimulator& board,
                 ServingConfig config = {});

  ServingReport run(IScheduler& scheduler,
                    const workload::Scenario& scenario) const;

  const ServingConfig& config() const { return config_; }
  /// The churn-cost model built from ServingConfig::migration (exposed for
  /// tests and drivers that want to pre-assess a transition).
  const sim::MigrationCostModel& migration_model() const { return migration_; }

 private:
  const models::ModelZoo* zoo_;
  const sim::DesSimulator* board_;
  ServingConfig config_;
  sim::MigrationCostModel migration_;
};

}  // namespace omniboost::core

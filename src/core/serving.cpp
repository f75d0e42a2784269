#include "core/serving.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace omniboost::core {

double mapping_churn(const sim::Mapping& previous,
                     const std::vector<std::ptrdiff_t>& carried_from,
                     const sim::Mapping& next, std::size_t* surviving_layers,
                     std::size_t* moved_layers) {
  OB_REQUIRE(carried_from.size() == next.num_dnns(),
             "mapping_churn: carried_from arity mismatch");
  std::size_t surviving = 0, moved = 0;
  for (std::size_t d = 0; d < next.num_dnns(); ++d) {
    const std::ptrdiff_t from = carried_from[d];
    if (from < 0) continue;
    OB_REQUIRE(static_cast<std::size_t>(from) < previous.num_dnns(),
               "mapping_churn: carried_from out of range");
    const sim::Assignment& was =
        previous.assignment(static_cast<std::size_t>(from));
    const sim::Assignment& now = next.assignment(d);
    OB_REQUIRE(was.size() == now.size(),
               "mapping_churn: surviving stream layer-count mismatch");
    surviving += was.size();
    for (std::size_t l = 0; l < was.size(); ++l)
      if (was[l] != now[l]) ++moved;
  }
  if (surviving_layers != nullptr) *surviving_layers = surviving;
  if (moved_layers != nullptr) *moved_layers = moved;
  return surviving > 0 ? static_cast<double>(moved) /
                             static_cast<double>(surviving)
                       : 0.0;
}

ServingTotals& ServingTotals::operator+=(const ServingTotals& other) {
  decisions += other.decisions;
  total_decision_seconds += other.total_decision_seconds;
  total_evaluations += other.total_evaluations;
  total_cache_hits += other.total_cache_hits;
  total_des_replays += other.total_des_replays;
  total_slo_streams += other.total_slo_streams;
  total_slo_violations += other.total_slo_violations;
  total_migrated_segments += other.total_migrated_segments;
  total_migration_stall_s += other.total_migration_stall_s;
  return *this;
}

ServingSession::ServingSession(const models::ModelZoo& zoo,
                               const sim::DesSimulator& board,
                               ServingConfig config)
    : zoo_(&zoo),
      board_(&board),
      config_(config),
      migration_(board.device(), config.migration) {}

const EpochReport& ServingSession::apply(IScheduler& scheduler,
                                         const workload::ScenarioEvent& e,
                                         double arrival_stall_s) {
  OB_REQUIRE(!workload::is_fault_event(e.kind),
             "ServingSession::apply: fault events are fleet-level — "
             "core::Cluster translates them into evict_all()/refresh()");
  OB_REQUIRE(arrival_stall_s >= 0.0,
             "ServingSession::apply: negative arrival stall");
  OB_REQUIRE(
      arrival_stall_s == 0.0 ||
          e.kind == workload::ScenarioEventKind::kArrive,
      "ServingSession::apply: arrival stall on a non-arrive event");

  EpochReport ep;
  ep.time_s = e.time_s;
  ep.event =
      std::string(e.kind == workload::ScenarioEventKind::kArrive ? "arrive "
                                                                 : "depart ") +
      std::string(models::model_name(e.model));

  // Apply the event. A Scenario's own validation already guarantees
  // legality for the batch path; a stepwise driver must uphold the same
  // contract, so depart-of-absent is re-checked here. The SLO arrives with
  // the stream and leaves with it — a later re-arrival without an `slo`
  // clause serves unconstrained.
  if (e.kind == workload::ScenarioEventKind::kArrive) {
    OB_REQUIRE(std::find(present_.begin(), present_.end(), e.model) ==
                   present_.end(),
               "ServingSession::apply: arrival of a stream already present");
    present_.push_back(e.model);
    present_slo_s_.push_back(e.slo_ms / 1e3);
  } else {
    const auto it = std::find(present_.begin(), present_.end(), e.model);
    OB_REQUIRE(it != present_.end(),
               "ServingSession::apply: departure of a stream not present");
    present_slo_s_.erase(present_slo_s_.begin() + (it - present_.begin()));
    present_.erase(it);
  }

  if (present_.empty()) {
    // Idle epoch: nothing to schedule; the next decision starts cold.
    ep.mix = "(idle)";
    have_prev_ = false;
    last_throughput_ = 0.0;
    ++report_.epoch_count;
    last_ = std::move(ep);
    return last_;
  }

  return serve_epoch(scheduler, std::move(ep), arrival_stall_s);
}

const EpochReport& ServingSession::refresh(IScheduler& scheduler,
                                           double time_s,
                                           const std::string& label) {
  OB_REQUIRE(!present_.empty(),
             "ServingSession::refresh: nothing resident to refresh");
  EpochReport ep;
  ep.time_s = time_s;
  ep.event = label;
  return serve_epoch(scheduler, std::move(ep), 0.0);
}

void ServingSession::evict_all() {
  present_.clear();
  present_slo_s_.clear();
  have_prev_ = false;
  last_throughput_ = 0.0;
}

const EpochReport& ServingSession::serve_epoch(IScheduler& scheduler,
                                               EpochReport ep,
                                               double arrival_stall_s) {
  const workload::Workload w{present_};
  ep.mix = w.describe();
  ep.mix_size = w.size();

  std::vector<std::ptrdiff_t> carried_from;
  if (!have_prev_) {
    ep.decision = scheduler.schedule(w);
  } else {
    ScheduleContext ctx;
    ctx.warm_start = config_.warm_start;
    ctx.slo_s = present_slo_s_;
    ctx.board = board_;
    ctx.migration = &migration_;
    ctx.carried_from.reserve(w.size());
    for (const models::ModelId id : w.mix) {
      const auto it = std::find(prev_w_.mix.begin(), prev_w_.mix.end(), id);
      ctx.carried_from.push_back(it == prev_w_.mix.end()
                                     ? std::ptrdiff_t{-1}
                                     : it - prev_w_.mix.begin());
    }
    ep.decision = scheduler.reschedule(w, prev_mapping_, ctx);
    ep.churn = mapping_churn(prev_mapping_, ctx.carried_from,
                             ep.decision.mapping, &ep.surviving_layers,
                             &ep.moved_layers);
    carried_from = std::move(ctx.carried_from);
    ++incremental_;
    incremental_seconds_ += ep.decision.decision_seconds;
    if (ep.surviving_layers > 0) {
      ++churn_epochs_;
      churn_sum_ += ep.churn;
    }
  }

  // "Execute" the decision: steady-state measurement on the board. With
  // the churn-cost model enabled, incremental epochs charge each surviving
  // stream its one-off migration stall (delayed DES start); first and
  // post-idle decisions load weights from scratch no matter who decided,
  // so they are never charged.
  const sim::NetworkList nets = w.resolve(*zoo_);
  std::vector<double> start_delay_s;
  if (have_prev_ && migration_.enabled()) {
    const sim::MigrationStats mig = migration_.assess(
        nets, prev_mapping_, carried_from, ep.decision.mapping);
    ep.migrated_segments = mig.migrated_segments;
    ep.migration_weight_bytes = mig.moved_weight_bytes;
    ep.migration_stall_s = mig.total_delay_s;
    start_delay_s = mig.stream_delay_s;
    report_.total_migrated_segments += mig.migrated_segments;
    report_.total_migration_stall_s += mig.total_delay_s;
  }
  if (arrival_stall_s > 0.0) {
    // Cross-board migrate-in (Cluster): the arriving stream — always the
    // last mix slot, present_ is arrival-ordered — waits out its weight
    // transfer before its first frame. Fleet-level accounting only; the
    // epoch's intra-board migration_* fields are untouched.
    start_delay_s.resize(w.size(), 0.0);
    start_delay_s.back() += arrival_stall_s;
  }

  ep.slo_streams = static_cast<std::size_t>(
      std::count_if(present_slo_s_.begin(), present_slo_s_.end(),
                    [](double s) { return s > 0.0; }));
  if (ep.slo_streams > 0) {
    // SLO epochs measure through the traced simulator (identical
    // throughput accounting; adds per-stream latency distributions).
    const sim::DesSimulator::TracedResult traced =
        board_->simulate_traced(nets, ep.decision.mapping, start_delay_s);
    ep.feasible = traced.report.feasible;
    ep.measured_throughput = traced.report.avg_throughput;
    ep.slo_s = present_slo_s_;
    ep.latency_p99_s.reserve(w.size());
    for (const sim::LatencyStats& ls : traced.trace.per_dnn_latency)
      ep.latency_p99_s.push_back(ls.p99);
    // sim::breaks_slo is the shared rule (starvation counts; see its
    // header comment) — the SLO-aware search uses the identical one.
    for (std::size_t d = 0; d < w.size(); ++d) {
      if (sim::breaks_slo(traced.report, traced.trace, d, present_slo_s_[d]))
        ++ep.slo_violations;
    }
    report_.total_slo_streams += ep.slo_streams;
    report_.total_slo_violations += ep.slo_violations;
  } else {
    const sim::ThroughputReport measured =
        board_->simulate(nets, ep.decision.mapping, start_delay_s);
    ep.feasible = measured.feasible;
    ep.measured_throughput = measured.avg_throughput;
  }

  ++report_.decisions;
  report_.total_decision_seconds += ep.decision.decision_seconds;
  report_.total_evaluations += ep.decision.evaluations;
  report_.total_cache_hits += ep.decision.cache_hits;
  report_.total_des_replays += ep.decision.des_replays;
  throughput_sum_ += ep.measured_throughput;
  last_throughput_ = ep.measured_throughput;

  prev_w_ = w;
  prev_mapping_ = ep.decision.mapping;
  have_prev_ = true;
  ++report_.epoch_count;
  last_ = std::move(ep);
  return last_;
}

ServingReport ServingSession::summary() const {
  ServingReport report = report_;
  if (report.decisions > 0)
    report.mean_throughput =
        throughput_sum_ / static_cast<double>(report.decisions);
  if (incremental_ > 0)
    report.mean_incremental_decision_seconds =
        incremental_seconds_ / static_cast<double>(incremental_);
  if (churn_epochs_ > 0)
    report.mean_churn = churn_sum_ / static_cast<double>(churn_epochs_);
  return report;
}

ServingRuntime::ServingRuntime(const models::ModelZoo& zoo,
                               const sim::DesSimulator& board,
                               ServingConfig config)
    : zoo_(&zoo), board_(&board), config_(config) {}

ServingReport ServingRuntime::run(IScheduler& scheduler,
                                  const workload::Scenario& scenario) const {
  OB_REQUIRE(!scenario.empty(), "ServingRuntime::run: empty scenario");

  ServingSession session(*zoo_, *board_, config_);
  std::vector<EpochReport> epochs;
  for (const workload::ScenarioEvent& e : scenario.events())
    epochs.push_back(session.apply(scheduler, e));
  ServingReport report = session.summary();
  report.epochs = std::move(epochs);
  return report;
}

}  // namespace omniboost::core

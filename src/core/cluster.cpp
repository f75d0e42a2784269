#include "core/cluster.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "device/cost_model.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace omniboost::core {

namespace {

/// Streams currently on a board, resolved against the zoo.
sim::NetworkList resolve_present(const models::ModelZoo& zoo,
                                 const std::vector<models::ModelId>& present) {
  sim::NetworkList nets;
  nets.reserve(present.size());
  for (const models::ModelId id : present) nets.push_back(&zoo.network(id));
  return nets;
}

/// Installs a precomputed mapping through the ordinary epoch engine: both
/// schedule() and reschedule() simply return the stored mapping, so the
/// ServingSession::refresh() path re-measures it exactly like any scheduler
/// decision. ClusterSession::install_mapping uses this to land background
/// re-search results without a second measurement code path.
class FixedMappingScheduler final : public IScheduler {
 public:
  explicit FixedMappingScheduler(sim::Mapping mapping)
      : mapping_(std::move(mapping)) {}
  std::string name() const override { return "background-install"; }
  ScheduleResult schedule(const workload::Workload&) override {
    ScheduleResult r;
    r.mapping = mapping_;
    return r;
  }
  ScheduleResult reschedule(const workload::Workload&, const sim::Mapping&,
                            const ScheduleContext&) override {
    ScheduleResult r;
    r.mapping = mapping_;
    return r;
  }

 private:
  sim::Mapping mapping_;
};

class LeastLoadedPolicy final : public IPlacementPolicy {
 public:
  std::string name() const override { return "least-loaded"; }
  std::size_t place(const workload::ScenarioEvent&,
                    const models::NetworkDesc&,
                    const std::vector<BoardView>& boards,
                    const std::vector<std::size_t>& admissible) override {
    std::size_t best = admissible.front();
    for (const std::size_t i : admissible)
      if (boards[i].streams < boards[best].streams) best = i;
    return best;
  }
};

class BestEstimatedTPolicy final : public IPlacementPolicy {
 public:
  std::string name() const override { return "best-t"; }
  std::size_t place(const workload::ScenarioEvent&,
                    const models::NetworkDesc& net,
                    const std::vector<BoardView>& boards,
                    const std::vector<std::size_t>& admissible) override {
    // Estimated post-placement utilization: compute demand over capacity.
    // The board that stays least utilized serves the highest T per stream.
    const auto utilization = [&](std::size_t i) {
      return (boards[i].load_flops + net.total_flops()) /
             std::max(boards[i].peak_gflops, 1e-12);
    };
    std::size_t best = admissible.front();
    for (const std::size_t i : admissible)
      if (utilization(i) < utilization(best)) best = i;
    return best;
  }
};

class MemoryHeadroomPolicy final : public IPlacementPolicy {
 public:
  std::string name() const override { return "memory-headroom"; }
  std::size_t place(const workload::ScenarioEvent&,
                    const models::NetworkDesc&,
                    const std::vector<BoardView>& boards,
                    const std::vector<std::size_t>& admissible) override {
    std::size_t best = admissible.front();
    for (const std::size_t i : admissible)
      if (boards[i].memory_headroom_bytes > boards[best].memory_headroom_bytes)
        best = i;
    return best;
  }
};

/// One served epoch as JSON. Idle epochs (the mix drained; nothing was
/// scheduled) carry default decision fields; `idle` flags them so consumers
/// can filter without string-matching the mix label.
util::Json epoch_json(const EpochReport& ep) {
  using util::Json;
  Json j = Json::object();
  const auto num = [&j](const char* k, double v) { j.set(k, Json::number(v)); };
  num("t_s", ep.time_s);
  j.set("event", Json::string(ep.event));
  j.set("mix", Json::string(ep.mix));
  j.set("idle", Json::boolean(ep.mix_size == 0));
  num("mix_size", ep.mix_size);
  j.set("feasible", Json::boolean(ep.feasible));
  num("decision_seconds", ep.decision.decision_seconds);
  num("evaluations", ep.decision.evaluations);
  num("cache_hits", ep.decision.cache_hits);
  num("des_replays", ep.decision.des_replays);
  num("avg_throughput_inf_s", ep.measured_throughput);
  num("churn", ep.churn);
  num("surviving_layers", ep.surviving_layers);
  num("moved_layers", ep.moved_layers);
  num("slo_streams", ep.slo_streams);
  num("slo_violations", ep.slo_violations);
  if (ep.slo_streams > 0) {
    Json slos = Json::array();
    Json p99s = Json::array();
    for (std::size_t d = 0; d < ep.slo_s.size(); ++d) {
      slos.push_back(Json::number(ep.slo_s[d]));
      p99s.push_back(Json::number(ep.latency_p99_s[d]));
    }
    j.set("slo_s", std::move(slos));
    j.set("latency_p99_s", std::move(p99s));
  }
  num("migrated_segments", ep.migrated_segments);
  num("migration_stall_s", ep.migration_stall_s);
  num("migration_weight_bytes", ep.migration_weight_bytes);
  return j;
}

/// One board's report as JSON: its name, the epoch list and every aggregate.
util::Json board_json(const std::string& name, const ServingReport& r) {
  using util::Json;
  Json epochs = Json::array();
  for (const EpochReport& ep : r.epochs) epochs.push_back(epoch_json(ep));
  Json j = Json::object();
  const auto num = [&j](const char* k, double v) { j.set(k, Json::number(v)); };
  j.set("board", Json::string(name));
  j.set("epochs", std::move(epochs));
  num("epoch_count", r.epoch_count);
  num("decisions", r.decisions);
  num("mean_throughput_inf_s", r.mean_throughput);
  num("mean_incremental_decision_seconds", r.mean_incremental_decision_seconds);
  num("total_decision_seconds", r.total_decision_seconds);
  num("mean_churn", r.mean_churn);
  num("total_evaluations", r.total_evaluations);
  num("total_cache_hits", r.total_cache_hits);
  num("total_des_replays", r.total_des_replays);
  num("slo_streams", r.total_slo_streams);
  num("slo_violations", r.total_slo_violations);
  num("total_migrated_segments", r.total_migrated_segments);
  num("total_migration_stall_s", r.total_migration_stall_s);
  return j;
}

}  // namespace

std::unique_ptr<IPlacementPolicy> make_placement_policy(
    const std::string& kind) {
  if (kind == "least-loaded") return std::make_unique<LeastLoadedPolicy>();
  if (kind == "best-t") return std::make_unique<BestEstimatedTPolicy>();
  if (kind == "memory-headroom")
    return std::make_unique<MemoryHeadroomPolicy>();
  throw std::invalid_argument(
      "make_placement_policy: unknown kind '" + kind +
      "' (expected least-loaded | best-t | memory-headroom)");
}

const std::vector<std::string>& placement_policy_kinds() {
  static const std::vector<std::string> kinds = {"least-loaded", "best-t",
                                                 "memory-headroom"};
  return kinds;
}

double board_memory_lower_bound_bytes(const device::CostModel& cost,
                                      const sim::NetworkList& nets) {
  double bytes = cost.device().per_stream_overhead_bytes *
                 static_cast<double>(nets.size());
  for (const models::NetworkDesc* net : nets) {
    OB_REQUIRE(net != nullptr && !net->layers.empty(),
               "board_memory_lower_bound_bytes: empty network");
    // One segment spanning the whole network is the residency minimum: any
    // split repeats the largest-activation term per segment.
    bytes += cost.segment_working_set_bytes(*net, 0, net->num_layers() - 1);
  }
  return bytes;
}

double solo_latency_floor_s(const device::CostModel& cost,
                            const models::NetworkDesc& net) {
  double floor_s = cost.device().per_inference_overhead_s;
  for (const models::LayerDesc& layer : net.layers) {
    double best = cost.layer_time(layer, device::kAllComponents[0]);
    for (std::size_t c = 1; c < device::kNumComponents; ++c)
      best = std::min(best, cost.layer_time(layer, device::kAllComponents[c]));
    floor_s += best;
  }
  return floor_s;
}

Cluster::Cluster(const models::ModelZoo& zoo, std::vector<BoardSpec> boards,
                 ClusterConfig config)
    : zoo_(&zoo), boards_(std::move(boards)), config_(config) {
  OB_REQUIRE(!boards_.empty(), "Cluster: at least one board required");
  // Up-front config validation: bad pricing parameters would otherwise
  // surface as NaN stalls deep inside a run.
  OB_REQUIRE(
      std::isfinite(config_.cross_board_gbps) && config_.cross_board_gbps > 0.0,
      "Cluster: cross_board_gbps must be finite and > 0");
  OB_REQUIRE(std::isfinite(config_.max_migration_stall_s) &&
                 config_.max_migration_stall_s >= 0.0,
             "Cluster: max_migration_stall_s must be finite and >= 0");
  sims_.reserve(boards_.size());
  for (const BoardSpec& b : boards_)
    sims_.push_back(std::make_unique<sim::DesSimulator>(b.device));
}

ClusterReport Cluster::run(const SchedulerFactory& make_scheduler,
                           const workload::Scenario& scenario,
                           IPlacementPolicy& policy) const {
  OB_REQUIRE(!scenario.empty(), "Cluster::run: empty scenario");
  OB_REQUIRE(scenario.fault_board_span() <= boards_.size(),
             "Cluster::run: scenario fault events target a board outside "
             "the fleet");
  ClusterSession session(*this, make_scheduler, policy);
  for (const workload::ScenarioEvent& e : scenario.events()) session.apply(e);
  ClusterReport report = session.finish();
  // finish() summarises each board; a batch replay also returns its epochs.
  for (std::size_t i = 0; i < report.boards.size(); ++i)
    report.boards[i] = session.session(i).finish();
  return report;
}

ClusterSession::ClusterSession(const Cluster& cluster,
                               const SchedulerFactory& make_scheduler,
                               IPlacementPolicy& policy)
    : cluster_(&cluster), policy_(&policy) {
  OB_REQUIRE(static_cast<bool>(make_scheduler),
             "ClusterSession: null scheduler factory");
  const std::size_t n = cluster_->boards_.size();
  schedulers_.reserve(n);
  sessions_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    schedulers_.push_back(make_scheduler(i));
    OB_REQUIRE(schedulers_.back() != nullptr,
               "ClusterSession: scheduler factory returned null");
    sessions_.emplace_back(*cluster_->zoo_, *cluster_->sims_[i],
                           cluster_->config_.serving);
    // A previous faulted run may have left the board throttled; reruns must
    // be byte-identical, so every run starts at full health (setting 1.0 on
    // a healthy board is numerically a no-op).
    cluster_->sims_[i]->set_throttle(1.0);
  }
  up_.assign(n, true);
  throttle_.assign(n, 1.0);
  down_since_.assign(n, 0.0);
  location_.assign(models::kNumModels, kNoBoard);
  rejected_.assign(models::kNumModels, false);
  shed_.assign(models::kNumModels, false);
  report_.board_names.reserve(n);
  for (const BoardSpec& b : cluster_->boards_)
    report_.board_names.push_back(b.name);
}

ClusterSession::~ClusterSession() {
  // Leave the shared simulators healthy for the cluster's next run/session.
  for (const auto& sim : cluster_->sims_) sim->set_throttle(1.0);
}

const ServingSession& ClusterSession::session(std::size_t board) const {
  OB_REQUIRE(board < sessions_.size(), "ClusterSession: board out of range");
  return sessions_[board];
}

bool ClusterSession::board_up(std::size_t board) const {
  OB_REQUIRE(board < up_.size(), "ClusterSession: board out of range");
  return up_[board];
}

const device::DeviceSpec& ClusterSession::board_device(
    std::size_t board) const {
  OB_REQUIRE(board < sessions_.size(), "ClusterSession: board out of range");
  return cluster_->sims_[board]->cost_model().device();
}

// Live views for the placement policy (and the admission headroom).
std::vector<BoardView> ClusterSession::make_views() const {
  const std::size_t n = sessions_.size();
  std::vector<BoardView> views(n);
  for (std::size_t i = 0; i < n; ++i) {
    BoardView& v = views[i];
    v.index = i;
    v.device = &cluster_->boards_[i].device;
    v.streams = sessions_[i].present().size();
    v.load_flops = 0.0;
    for (const models::ModelId id : sessions_[i].present())
      v.load_flops += cluster_->zoo_->network(id).total_flops();
    v.peak_gflops = 0.0;
    for (const device::ComponentSpec& c : cluster_->boards_[i].device.components)
      v.peak_gflops += c.peak_gflops;
    const sim::NetworkList nets =
        resolve_present(*cluster_->zoo_, sessions_[i].present());
    v.memory_headroom_bytes =
        cluster_->boards_[i].device.memory_budget_bytes -
        board_memory_lower_bound_bytes(cluster_->sims_[i]->cost_model(), nets);
    v.last_measured_throughput = sessions_[i].last_measured_throughput();
  }
  return views;
}

// True when board \p board can possibly serve \p net on top of its current
// residency within the arrival's SLO (if any).
bool ClusterSession::admits(std::size_t board, const models::NetworkDesc& net,
                            double slo_s) const {
  if (!up_[board]) return false;  // failed boards never admit, admit_all or not
  if (cluster_->config_.admit_all) return true;
  sim::NetworkList nets =
      resolve_present(*cluster_->zoo_, sessions_[board].present());
  nets.push_back(&net);
  if (board_memory_lower_bound_bytes(cluster_->sims_[board]->cost_model(),
                                     nets) >
      cluster_->boards_[board].device.memory_budget_bytes)
    return false;
  if (slo_s > 0.0 &&
      solo_latency_floor_s(cluster_->sims_[board]->cost_model(), net) > slo_s)
    return false;
  return true;
}

// Prices moving \p net's weights onto another board over the fleet
// network (the intra-board model's per-segment overhead applies once —
// the whole network re-instantiates as one download).
double ClusterSession::cross_board_stall(
    const models::NetworkDesc& net) const {
  return net.total_weight_bytes() /
             (cluster_->config_.cross_board_gbps * 1e9) +
         cluster_->config_.serving.migration.per_segment_overhead_s;
}

// All board epochs flow through here so degraded-epoch exposure (non-idle
// epochs served at reduced speed) is counted uniformly; at full health the
// extra comparison changes nothing.
const EpochReport& ClusterSession::serve(std::size_t board,
                                         const workload::ScenarioEvent& ev,
                                         double stall_s) {
  const EpochReport& ep =
      sessions_[board].apply(*schedulers_[board], ev, stall_s);
  if (ep.mix_size > 0 && throttle_[board] < 1.0) ++report_.degraded_epochs;
  return ep;
}

// Residency floor of one stream — the failover/rebalance ordering key
// (device-independent: weights plus double-buffered peak activation).
double ClusterSession::working_set(const models::NetworkDesc& net) const {
  return cluster_->sims_[0]->cost_model().segment_working_set_bytes(
      net, 0, net.num_layers() - 1);
}

// Moves stream \p m (with its SLO) onto \p target, charging the
// cross-board transfer as a start stall on its first epoch there.
void ClusterSession::arrive_at(std::size_t target, models::ModelId m,
                               double slo_s, double time_s, double stall_s) {
  workload::ScenarioEvent arr;
  arr.time_s = time_s;
  arr.kind = workload::ScenarioEventKind::kArrive;
  arr.model = m;
  arr.slo_ms = slo_s * 1e3;
  serve(target, arr, stall_s);
  location_[models::model_index(m)] = target;
}

ClusterSession::ApplyOutcome ClusterSession::apply(
    const workload::ScenarioEvent& e) {
  const std::size_t n = sessions_.size();
  OB_REQUIRE(e.time_s >= last_time_s_,
             "ClusterSession::apply: event times must be non-decreasing");
  last_time_s_ = e.time_s;
  ++version_;
  ApplyOutcome outcome;
  if (workload::is_fault_event(e.kind)) {
    OB_REQUIRE(e.board < n,
               "ClusterSession::apply: fault event targets a board outside "
               "the fleet");
    const std::size_t b = e.board;
    outcome.kind = ApplyKind::kFault;
    outcome.board = b;
    if (e.kind == workload::ScenarioEventKind::kFailBoard) {
      OB_REQUIRE(up_[b],
                 "ClusterSession::apply: board fails while already failed");
      ++report_.board_failures;
      up_[b] = false;
      down_since_[b] = e.time_s;
      // Snapshot the residents, evict the board, then fail each stream
      // over — lightest working set first: light streams are the
      // likeliest to fit a survivor and the cheapest to move, so when
      // capacity runs short it is the heaviest (least-feasible) streams
      // that get shed. A rebooted board holds no weights, so eviction
      // clears the session's warm state entirely.
      std::vector<models::ModelId> victims = sessions_[b].present();
      const std::vector<double> victim_slos = sessions_[b].present_slo_s();
      std::vector<double> victim_slo_of(models::kNumModels, 0.0);
      for (std::size_t v = 0; v < victims.size(); ++v)
        victim_slo_of[models::model_index(victims[v])] = victim_slos[v];
      sessions_[b].evict_all();
      std::stable_sort(victims.begin(), victims.end(),
                       [&](models::ModelId a, models::ModelId c) {
                         return working_set(cluster_->zoo_->network(a)) <
                                working_set(cluster_->zoo_->network(c));
                       });
      for (const models::ModelId m : victims) {
        const models::NetworkDesc& net = cluster_->zoo_->network(m);
        const double slo_s = victim_slo_of[models::model_index(m)];
        std::vector<std::size_t> targets;
        for (std::size_t i = 0; i < n; ++i)
          if (admits(i, net, slo_s)) targets.push_back(i);
        if (targets.empty()) {
          // Graceful degradation: no survivor can take the stream.
          shed_[models::model_index(m)] = true;
          location_[models::model_index(m)] = kNoBoard;
          ++report_.shed_streams;
          continue;
        }
        // Failover is forced, not elective — the stall cap never sheds a
        // stream some board still admits.
        const double stall_s = cross_board_stall(net);
        workload::ScenarioEvent arr = e;
        arr.kind = workload::ScenarioEventKind::kArrive;
        arr.model = m;
        arr.slo_ms = slo_s * 1e3;
        arr.board = 0;
        const std::size_t target =
            policy_->place(arr, net, make_views(), targets);
        OB_REQUIRE(std::find(targets.begin(), targets.end(), target) !=
                       targets.end(),
                   "Cluster::run: policy placed outside the target set");
        arrive_at(target, m, slo_s, e.time_s, stall_s);
        ++report_.failovers;
        report_.failover_stall_s += stall_s;
        report_.failover_weight_bytes += net.total_weight_bytes();
      }
    } else if (e.kind == workload::ScenarioEventKind::kThrottleBoard) {
      OB_REQUIRE(up_[b],
                 "ClusterSession::apply: board throttles while failed");
      ++report_.board_throttles;
      throttle_[b] = e.factor;
      cluster_->sims_[b]->set_throttle(e.factor);
      if (!sessions_[b].idle()) {
        // Re-decide and re-measure the resident mix at the new speed.
        char label[64];
        std::snprintf(label, sizeof(label), "throttle x%g (refresh)",
                      e.factor);
        const EpochReport& ep =
            sessions_[b].refresh(*schedulers_[b], e.time_s, label);
        outcome.measured_throughput = ep.measured_throughput;
        ++report_.degraded_epochs;
      }
    } else {  // kRecoverBoard
      ++report_.board_recoveries;
      const bool was_throttled = up_[b] && throttle_[b] < 1.0;
      if (!up_[b]) {
        report_.downtime_board_s += e.time_s - down_since_[b];
        up_[b] = true;
      }
      throttle_[b] = 1.0;
      cluster_->sims_[b]->set_throttle(1.0);
      if (was_throttled && !sessions_[b].idle()) {
        const EpochReport& ep =
            sessions_[b].refresh(*schedulers_[b], e.time_s,
                                 "recover (refresh)");
        outcome.measured_throughput = ep.measured_throughput;
      }
      if (cluster_->config_.rebalance_on_recovery) {
        // Greedily pull streams back while some donor board holds at
        // least two more than the recovered one. Elective, so the
        // migration stall cap applies.
        for (;;) {
          std::size_t donor = kNoBoard;
          for (std::size_t i = 0; i < n; ++i) {
            if (i == b || !up_[i]) continue;
            if (donor == kNoBoard || sessions_[i].present().size() >
                                         sessions_[donor].present().size())
              donor = i;
          }
          if (donor == kNoBoard ||
              sessions_[donor].present().size() <
                  sessions_[b].present().size() + 2)
            break;
          // Lightest resident first: cheapest to move, likeliest to fit.
          const std::vector<models::ModelId>& held =
              sessions_[donor].present();
          const std::vector<double>& held_slos =
              sessions_[donor].present_slo_s();
          std::size_t pick = held.size();
          for (std::size_t v = 0; v < held.size(); ++v)
            if (pick == held.size() ||
                working_set(cluster_->zoo_->network(held[v])) <
                    working_set(cluster_->zoo_->network(held[pick])))
              pick = v;
          const models::ModelId m = held[pick];
          const double slo_s = held_slos[pick];
          const models::NetworkDesc& net = cluster_->zoo_->network(m);
          const double stall_s = cross_board_stall(net);
          if (!admits(b, net, slo_s) ||
              (cluster_->config_.max_migration_stall_s > 0.0 &&
               stall_s > cluster_->config_.max_migration_stall_s))
            break;
          workload::ScenarioEvent leave;
          leave.time_s = e.time_s;
          leave.kind = workload::ScenarioEventKind::kDepart;
          leave.model = m;
          serve(donor, leave);
          arrive_at(b, m, slo_s, e.time_s, stall_s);
          ++report_.rebalances;
          report_.rebalance_stall_s += stall_s;
        }
      }
    }
    return outcome;
  }
  if (e.kind == workload::ScenarioEventKind::kDepart) {
    const std::size_t idx = models::model_index(e.model);
    if (rejected_[idx]) {
      // The stream never made it onto a board; its departure is a no-op.
      rejected_[idx] = false;
      ++report_.rejected_departures;
      outcome.kind = ApplyKind::kSwallowedDeparture;
      return outcome;
    }
    if (shed_[idx]) {
      // The stream was dropped during a failover; nothing holds it now.
      shed_[idx] = false;
      ++report_.shed_departures;
      outcome.kind = ApplyKind::kSwallowedDeparture;
      return outcome;
    }
    const std::size_t board = location_[idx];
    OB_REQUIRE(board != kNoBoard,
               "Cluster::run: departure of an untracked stream");
    const EpochReport& ep = serve(board, e);
    location_[idx] = kNoBoard;
    ++report_.departures;
    outcome.kind = ApplyKind::kDeparted;
    outcome.board = board;
    outcome.measured_throughput = ep.measured_throughput;
    return outcome;
  }

  // Arrival: admit, place, serve — or reject.
  ++report_.offered_streams;
  const models::NetworkDesc& net = cluster_->zoo_->network(e.model);
  const double slo_s = e.slo_ms / 1e3;

  std::vector<std::size_t> admissible;
  for (std::size_t i = 0; i < n; ++i)
    if (admits(i, net, slo_s)) admissible.push_back(i);
  if (admissible.empty()) {
    rejected_[models::model_index(e.model)] = true;
    ++report_.rejected_streams;
    outcome.kind = ApplyKind::kRejected;
    outcome.board = kNoBoard;
    return outcome;
  }

  const std::vector<BoardView> views = make_views();
  const std::size_t board = policy_->place(e, net, views, admissible);
  OB_REQUIRE(std::find(admissible.begin(), admissible.end(), board) !=
                 admissible.end(),
             "Cluster::run: policy placed outside the admissible set");
  const EpochReport& ep = serve(board, e);
  location_[models::model_index(e.model)] = board;
  ++report_.admitted_streams;
  outcome.kind = ApplyKind::kAdmitted;
  outcome.board = board;
  outcome.measured_throughput = ep.measured_throughput;

  // Rescue: the arrival saturated its board (DES says the mix is not
  // serveable there). Move the arriving stream — the cheapest victim, its
  // weights are the only ones not yet resident anywhere — to another
  // admitting board, pricing the cross-board weight transfer as a one-off
  // start stall on its first epoch there.
  if (cluster_->config_.migrate && !ep.feasible && n > 1) {
    std::vector<std::size_t> targets;
    for (std::size_t i = 0; i < n; ++i)
      if (i != board && admits(i, net, slo_s)) targets.push_back(i);
    if (!targets.empty()) {
      const double stall_s = cross_board_stall(net);
      if (cluster_->config_.max_migration_stall_s <= 0.0 ||
          stall_s <= cluster_->config_.max_migration_stall_s) {
        const std::size_t target =
            policy_->place(e, net, make_views(), targets);
        OB_REQUIRE(std::find(targets.begin(), targets.end(), target) !=
                       targets.end(),
                   "Cluster::run: policy placed outside the target set");
        workload::ScenarioEvent leave = e;
        leave.kind = workload::ScenarioEventKind::kDepart;
        leave.slo_ms = 0.0;  // departures never carry an SLO
        serve(board, leave);
        const EpochReport& moved = serve(target, e, stall_s);
        location_[models::model_index(e.model)] = target;
        ++report_.migrations;
        report_.cross_board_stall_s += stall_s;
        report_.cross_board_weight_bytes += net.total_weight_bytes();
        outcome.board = target;
        outcome.migrated = true;
        outcome.measured_throughput = moved.measured_throughput;
      }
    }
  }
  return outcome;
}

bool ClusterSession::install_mapping(std::size_t board,
                                     const sim::Mapping& mapping,
                                     double time_s, const std::string& label) {
  OB_REQUIRE(board < sessions_.size(), "ClusterSession: board out of range");
  OB_REQUIRE(time_s >= last_time_s_,
             "ClusterSession::install_mapping: time must be non-decreasing");
  if (!up_[board] || sessions_[board].idle()) return false;
  // Shape check: the refinement ran against a snapshot of the mix; if an
  // event slipped in between the version check and here, refuse.
  const workload::Workload mix{sessions_[board].present()};
  const std::vector<std::size_t> counts =
      mix.layer_counts(*cluster_->zoo_);
  if (mapping.num_dnns() != counts.size()) return false;
  for (std::size_t d = 0; d < counts.size(); ++d)
    if (mapping.assignment(d).size() != counts[d]) return false;
  FixedMappingScheduler fixed(mapping);
  const EpochReport& ep = sessions_[board].refresh(fixed, time_s, label);
  if (ep.mix_size > 0 && throttle_[board] < 1.0) ++report_.degraded_epochs;
  last_time_s_ = time_s;
  return true;
}

void ClusterSession::note_background_search(bool installed) {
  ++report_.background_searches;
  if (installed) ++report_.background_improvements;
}

ClusterReport ClusterSession::finish() const {
  ClusterReport report = report_;
  // Boards still down accrue downtime up to the last applied event's
  // timestamp (a snapshot: the session's own accumulator is untouched, so
  // finish() stays repeatable and later events keep accruing correctly).
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (!up_[i]) report.downtime_board_s += last_time_s_ - down_since_[i];
    report.resident_streams += sessions_[i].present().size();
  }
  for (const ServingSession& s : sessions_)
    report.boards.push_back(s.summary());
  for (const ServingReport& b : report.boards) {
    report.decisions += b.decisions;
    report.total_decision_seconds += b.total_decision_seconds;
    report.fleet_throughput += b.mean_throughput;
    report.total_slo_streams += b.total_slo_streams;
    report.total_slo_violations += b.total_slo_violations;
    report.total_evaluations += b.total_evaluations;
    report.total_cache_hits += b.total_cache_hits;
    report.total_des_replays += b.total_des_replays;
    report.total_migrated_segments += b.total_migrated_segments;
    report.total_migration_stall_s += b.total_migration_stall_s;
  }
  if (report.offered_streams > 0)
    report.rejection_rate = static_cast<double>(report.rejected_streams) /
                            static_cast<double>(report.offered_streams);
  return report;
}

std::string format_cluster_report(const ClusterReport& report) {
  std::ostringstream os;
  util::Table table(
      {"board", "epochs", "decisions", "mean T inf/s", "churn", "SLO"});
  for (std::size_t i = 0; i < report.boards.size(); ++i) {
    const ServingReport& br = report.boards[i];
    table.add_row(
        {report.board_names[i], std::to_string(br.epoch_count),
         std::to_string(br.decisions), util::fmt(br.mean_throughput, 2),
         util::fmt(100.0 * br.mean_churn, 1) + "%",
         br.total_slo_streams == 0
             ? "-"
             : std::to_string(br.total_slo_violations) + "/" +
                   std::to_string(br.total_slo_streams)});
  }
  table.print(os);
  char line[256];
  std::snprintf(line, sizeof(line),
                "\nfleet: %zu offered, %zu admitted, %zu rejected "
                "(%.1f%%), %zu departures\n",
                report.offered_streams, report.admitted_streams,
                report.rejected_streams, 100.0 * report.rejection_rate,
                report.departures);
  os << line;
  std::snprintf(line, sizeof(line),
                "fleet throughput %.3f inf/s | %zu decisions | %.3f s "
                "deciding\n",
                report.fleet_throughput, report.decisions,
                report.total_decision_seconds);
  os << line;
  if (report.migrations > 0) {
    std::snprintf(line, sizeof(line),
                  "migrations: %zu rescues, %.1f ms cross-board stall, "
                  "%.1f MB weights moved\n",
                  report.migrations, 1e3 * report.cross_board_stall_s,
                  report.cross_board_weight_bytes / 1e6);
    os << line;
  }
  if (report.board_failures + report.board_throttles +
          report.board_recoveries >
      0) {
    std::snprintf(
        line, sizeof(line),
        "faults: %zu failures, %zu throttles, %zu recoveries | "
        "%zu failovers (%.1f ms stall), %zu shed, %zu rebalanced\n",
        report.board_failures, report.board_throttles,
        report.board_recoveries, report.failovers,
        1e3 * report.failover_stall_s, report.shed_streams,
        report.rebalances);
    os << line;
    std::snprintf(line, sizeof(line),
                  "degradation: %.1f board-seconds down, %zu degraded epochs, "
                  "%zu streams resident at end\n",
                  report.downtime_board_s, report.degraded_epochs,
                  report.resident_streams);
    os << line;
  }
  if (report.total_slo_streams > 0) {
    std::snprintf(line, sizeof(line),
                  "SLO: %zu violations over %zu stream-epochs under an "
                  "SLO\n",
                  report.total_slo_violations, report.total_slo_streams);
    os << line;
  }
  if (report.background_searches > 0) {
    std::snprintf(line, sizeof(line),
                  "background: searches=%zu improvements=%zu\n",
                  report.background_searches, report.background_improvements);
    os << line;
  }
  // Machine-parseable stream-conservation line: admitted streams are either
  // served to departure, shed by a failover, or still resident at the end —
  // the invariant the daemon smoke test greps for.
  std::snprintf(line, sizeof(line),
                "conservation: offered=%zu admitted=%zu rejected=%zu "
                "departures=%zu shed=%zu resident=%zu\n",
                report.offered_streams, report.admitted_streams,
                report.rejected_streams, report.departures,
                report.shed_streams, report.resident_streams);
  os << line;
  return os.str();
}

util::Json to_json(const ClusterReport& report) {
  using util::Json;
  Json fleet = Json::array();
  for (std::size_t i = 0; i < report.boards.size(); ++i)
    fleet.push_back(board_json(report.board_names[i], report.boards[i]));
  Json j = Json::object();
  const auto num = [&j](const char* k, double v) { j.set(k, Json::number(v)); };
  num("boards", report.boards.size());
  j.set("fleet", std::move(fleet));
  num("offered_streams", report.offered_streams);
  num("admitted_streams", report.admitted_streams);
  num("rejected_streams", report.rejected_streams);
  num("rejection_rate", report.rejection_rate);
  num("departures", report.departures);
  num("migrations", report.migrations);
  num("cross_board_stall_s", report.cross_board_stall_s);
  num("cross_board_weight_bytes", report.cross_board_weight_bytes);
  num("board_failures", report.board_failures);
  num("board_throttles", report.board_throttles);
  num("board_recoveries", report.board_recoveries);
  num("failovers", report.failovers);
  num("failover_stall_s", report.failover_stall_s);
  num("failover_weight_bytes", report.failover_weight_bytes);
  num("shed_streams", report.shed_streams);
  num("shed_departures", report.shed_departures);
  num("rebalances", report.rebalances);
  num("downtime_board_s", report.downtime_board_s);
  num("degraded_epochs", report.degraded_epochs);
  num("resident_streams", report.resident_streams);
  num("fleet_throughput_inf_s", report.fleet_throughput);
  num("decisions", report.decisions);
  num("total_decision_seconds", report.total_decision_seconds);
  num("total_evaluations", report.total_evaluations);
  num("total_cache_hits", report.total_cache_hits);
  num("total_slo_streams", report.total_slo_streams);
  num("total_slo_violations", report.total_slo_violations);
  num("total_des_replays", report.total_des_replays);
  num("total_migrated_segments", report.total_migrated_segments);
  num("total_migration_stall_s", report.total_migration_stall_s);
  num("background_searches", report.background_searches);
  num("background_improvements", report.background_improvements);
  return j;
}

std::vector<BoardSpec> make_heterogeneous_fleet(
    std::size_t n, const device::DeviceSpec& base) {
  OB_REQUIRE(n > 0, "make_heterogeneous_fleet: n must be > 0");
  std::string family = base.name;
  for (char& c : family)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  std::vector<BoardSpec> fleet;
  fleet.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    device::DeviceSpec spec = base;
    std::string variant = family;
    switch (i % 3) {
      case 0:
        break;
      case 1: {
        variant += "-pro";
        for (device::ComponentSpec& c : spec.components) {
          c.peak_gflops *= 1.5;
          c.mem_bw_gbps *= 1.3;
        }
        spec.dram_bw_gbps *= 1.3;
        spec.memory_budget_bytes *= 1.5;
        break;
      }
      default: {
        variant += "-lite";
        for (device::ComponentSpec& c : spec.components) {
          c.peak_gflops *= 0.6;
          c.mem_bw_gbps *= 0.8;
        }
        spec.dram_bw_gbps *= 0.8;
        spec.memory_budget_bytes *= 0.75;
        break;
      }
    }
    spec.name = variant;
    fleet.push_back(BoardSpec{variant + "-" + std::to_string(i), spec});
  }
  return fleet;
}

}  // namespace omniboost::core

// core::Cluster: the fleet router's contracts.
//  * a 1-board cluster with the trivial policy replays a scenario
//    bit-identically to plain ServingRuntime (mapping, throughput, churn,
//    SLO bookkeeping), 3 seeds, warm AND cold, Greedy and warm OmniBoost
//  * stream conservation: every arrival lands on exactly one board or is
//    counted rejected; departures always resolve; per-board epoch counts
//    reconcile with the fleet counters including migrations
//  * fleet totals equal the sum of the per-board reports, in the structs
//    and in to_json, where board and fleet objects share the totals keys
//  * repeated runs produce byte-identical ClusterReports for every policy
//  * admission rejects memory- and SLO-infeasible streams; rescue migration
//    moves a saturating arrival and prices the cross-board transfer

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/dataset.hpp"
#include "core/omniboost.hpp"
#include "core/serving.hpp"
#include "device/cost_model.hpp"
#include "device/profile.hpp"
#include "sched/greedy.hpp"
#include "util/rng.hpp"
#include "workload/arrival.hpp"
#include "workload/faults.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace omniboost;
using core::BoardSpec;
using core::Cluster;
using core::ClusterConfig;
using core::ClusterReport;
using core::ServingReport;
using models::ModelId;
using models::ModelZoo;
using workload::Scenario;
using workload::ScenarioEvent;
using workload::ScenarioEventKind;

const ModelZoo& zoo() {
  static const ModelZoo z;
  return z;
}

const device::DeviceSpec& spec() {
  static const device::DeviceSpec s = device::make_hikey970();
  return s;
}

const sim::DesSimulator& board() {
  static const sim::DesSimulator b(spec());
  return b;
}

const core::EmbeddingTensor& embedding() {
  static const device::CostModel cost(spec());
  static const core::EmbeddingTensor e(zoo(), cost);
  return e;
}

/// A quickly-trained estimator for the warm-OmniBoost equivalence pin (the
/// pin compares trajectories, not accuracy).
std::shared_ptr<const core::ThroughputEstimator> trained_estimator() {
  static const auto est = [] {
    core::DatasetConfig dc;
    dc.samples = 40;
    const core::SampleSet data =
        core::generate_dataset(zoo(), embedding(), board(), dc);
    auto e = std::make_shared<core::ThroughputEstimator>(
        embedding().models_dim(), embedding().layers_dim());
    nn::L1Loss l1;
    nn::TrainConfig tc;
    tc.epochs = 3;
    e->fit(data, 10, l1, tc);
    return e;
  }();
  return est;
}

/// %.17g so two reports fingerprint equal iff every double is bit-equal
/// (modulo the sign of zero, which no field here produces negatively).
void put(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g|", v);
  out += buf;
}
void put(std::string& out, std::size_t v) {
  out += std::to_string(v) + "|";
}

std::string fingerprint(const core::EpochReport& ep) {
  std::string out;
  put(out, ep.time_s);
  out += ep.event + "|" + ep.mix + "|";
  put(out, ep.mix_size);
  for (const sim::Assignment& a : ep.decision.mapping.assignments())
    for (const device::ComponentId c : a)
      out += std::to_string(static_cast<int>(c));
  out += "|";
  put(out, ep.decision.expected_reward);
  put(out, ep.decision.evaluations);
  put(out, ep.decision.cache_hits);
  put(out, ep.measured_throughput);
  out += ep.feasible ? "F|" : "f|";
  put(out, ep.surviving_layers);
  put(out, ep.moved_layers);
  put(out, ep.churn);
  for (const double s : ep.slo_s) put(out, s);
  for (const double l : ep.latency_p99_s) put(out, l);
  put(out, ep.slo_streams);
  put(out, ep.slo_violations);
  put(out, ep.migrated_segments);
  put(out, ep.migration_weight_bytes);
  put(out, ep.migration_stall_s);
  return out;
}

/// Everything except wall-clock decision latencies (those are genuinely
/// non-deterministic timings, never compared bit-wise).
std::string fingerprint(const ServingReport& r) {
  std::string out;
  for (const core::EpochReport& ep : r.epochs) out += fingerprint(ep) + "\n";
  put(out, r.decisions);
  put(out, r.mean_throughput);
  put(out, r.mean_churn);
  put(out, r.total_evaluations);
  put(out, r.total_cache_hits);
  put(out, r.total_slo_streams);
  put(out, r.total_slo_violations);
  put(out, r.total_migrated_segments);
  put(out, r.total_migration_stall_s);
  return out;
}

std::string fingerprint(const ClusterReport& r) {
  std::string out;
  for (const std::string& n : r.board_names) out += n + "|";
  for (const ServingReport& b : r.boards) out += fingerprint(b) + "==\n";
  put(out, r.offered_streams);
  put(out, r.admitted_streams);
  put(out, r.rejected_streams);
  put(out, r.rejection_rate);
  put(out, r.departures);
  put(out, r.rejected_departures);
  put(out, r.migrations);
  put(out, r.cross_board_stall_s);
  put(out, r.cross_board_weight_bytes);
  put(out, r.board_failures);
  put(out, r.board_throttles);
  put(out, r.board_recoveries);
  put(out, r.failovers);
  put(out, r.failover_stall_s);
  put(out, r.failover_weight_bytes);
  put(out, r.shed_streams);
  put(out, r.shed_departures);
  put(out, r.rebalances);
  put(out, r.rebalance_stall_s);
  put(out, r.downtime_board_s);
  put(out, r.degraded_epochs);
  put(out, r.resident_streams);
  put(out, r.decisions);
  put(out, r.fleet_throughput);
  put(out, r.total_slo_streams);
  put(out, r.total_slo_violations);
  put(out, r.total_evaluations);
  put(out, r.total_cache_hits);
  return out;
}

/// Churn-y seeded scenario with a few SLOs, the single-board pin's input.
Scenario pin_scenario(std::uint64_t seed) {
  workload::ScenarioConfig cfg;
  cfg.events = 10;
  cfg.max_concurrent = 3;
  cfg.depart_bias = 0.5;
  cfg.slo_fraction = 0.4;
  util::Rng rng(util::fork_stream(seed, 0));
  return workload::random_scenario(rng, cfg);
}

core::SchedulerFactory greedy_factory(const Cluster& cluster) {
  return [&cluster](std::size_t i) -> std::unique_ptr<core::IScheduler> {
    return std::make_unique<sched::GreedyScheduler>(
        zoo(), cluster.boards()[i].device);
  };
}

TEST(ClusterSingleBoard, ReplaysServingRuntimeBitIdenticallyThreeSeeds) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Scenario s = pin_scenario(seed);
    for (const bool warm : {true, false}) {
      core::ServingConfig sc;
      sc.warm_start = warm;

      sched::GreedyScheduler direct(zoo(), spec());
      const ServingReport plain =
          core::ServingRuntime(zoo(), board(), sc).run(direct, s);

      ClusterConfig cc;
      cc.serving = sc;
      cc.migrate = false;
      cc.admit_all = true;  // the trivial policy setup: everything routes
      const Cluster cluster(zoo(), {BoardSpec{"solo", spec()}}, cc);
      const auto policy = core::make_placement_policy("least-loaded");
      const ClusterReport rep =
          cluster.run(greedy_factory(cluster), s, *policy);

      ASSERT_EQ(rep.boards.size(), 1u);
      EXPECT_EQ(fingerprint(rep.boards[0]), fingerprint(plain))
          << "seed " << seed << " warm " << warm;
      EXPECT_EQ(rep.rejected_streams, 0u);
      EXPECT_EQ(rep.migrations, 0u);
    }
  }
}

TEST(ClusterSingleBoard, WarmOmniBoostReplaysServingRuntimeBitIdentically) {
  // The warm path with a genuinely stateful scheduler (carried memos, warm
  // search): one seed keeps the suite fast; the scheduler-state plumbing is
  // identical across seeds.
  const Scenario s = pin_scenario(7);
  core::OmniBoostConfig oc;
  oc.mcts.budget = 32;
  oc.mcts.seed = 11;

  core::OmniBoostScheduler direct(zoo(), embedding(), trained_estimator(),
                                  oc);
  const ServingReport plain =
      core::ServingRuntime(zoo(), board()).run(direct, s);

  ClusterConfig cc;
  cc.migrate = false;
  cc.admit_all = true;
  const Cluster cluster(zoo(), {BoardSpec{"solo", spec()}}, cc);
  const auto policy = core::make_placement_policy("least-loaded");
  const core::SchedulerFactory factory =
      [&oc](std::size_t) -> std::unique_ptr<core::IScheduler> {
    return std::make_unique<core::OmniBoostScheduler>(
        zoo(), embedding(), trained_estimator(), oc);
  };
  const ClusterReport rep = cluster.run(factory, s, *policy);
  ASSERT_EQ(rep.boards.size(), 1u);
  EXPECT_EQ(fingerprint(rep.boards[0]), fingerprint(plain));
}

TEST(ClusterInvariants, StreamConservationAcrossPoliciesAndSeeds) {
  workload::ArrivalProcess p;
  p.rate_per_s = 0.4;
  p.mean_lifetime_s = 10.0;
  p.max_concurrent = 6;
  p.slo_fraction = 0.3;

  const std::vector<BoardSpec> fleet = core::make_heterogeneous_fleet(3);
  const Cluster cluster(zoo(), fleet, ClusterConfig{});

  for (const std::string& kind : core::placement_policy_kinds()) {
    for (const std::uint64_t seed : {11ull, 12ull}) {
      util::Rng rng(util::fork_stream(seed, 0));
      const Scenario s = workload::sample_scenario(p, 40.0, rng);
      if (s.empty()) continue;
      const auto policy = core::make_placement_policy(kind);
      const ClusterReport rep =
          cluster.run(greedy_factory(cluster), s, *policy);

      std::size_t scenario_arrivals = 0, scenario_departs = 0;
      for (const ScenarioEvent& e : s.events())
        (e.kind == ScenarioEventKind::kArrive ? scenario_arrivals
                                              : scenario_departs)++;

      // Every offered arrival is admitted to exactly one board or rejected.
      EXPECT_EQ(rep.offered_streams, scenario_arrivals);
      EXPECT_EQ(rep.admitted_streams + rep.rejected_streams,
                rep.offered_streams);
      // Every scenario departure resolves: applied to the board holding the
      // stream, or swallowed because the stream was rejected at arrival.
      EXPECT_EQ(rep.departures + rep.rejected_departures, scenario_departs);

      // Per-board epoch bookkeeping reconciles with the fleet counters:
      // each admitted arrival serves one arrive epoch, each rescue
      // migration adds one arrive + one depart epoch.
      std::size_t board_arrives = 0, board_departs = 0;
      for (const ServingReport& b : rep.boards) {
        for (const core::EpochReport& ep : b.epochs) {
          if (ep.event.rfind("arrive ", 0) == 0) ++board_arrives;
          if (ep.event.rfind("depart ", 0) == 0) ++board_departs;
        }
      }
      EXPECT_EQ(board_arrives, rep.admitted_streams + rep.migrations);
      EXPECT_EQ(board_departs, rep.departures + rep.migrations);
    }
  }
}

TEST(ClusterInvariants, FleetTotalsEqualSumOfBoardReports) {
  workload::ArrivalProcess p;
  p.rate_per_s = 0.5;
  p.mean_lifetime_s = 8.0;
  p.max_concurrent = 5;
  p.slo_fraction = 0.5;
  util::Rng rng(util::fork_stream(21, 0));
  const Scenario s = workload::sample_scenario(p, 30.0, rng);
  ASSERT_FALSE(s.empty());

  const Cluster cluster(zoo(), core::make_heterogeneous_fleet(2),
                        ClusterConfig{});
  const auto policy = core::make_placement_policy("best-t");
  const ClusterReport rep = cluster.run(greedy_factory(cluster), s, *policy);

  std::size_t decisions = 0, slo_streams = 0, slo_violations = 0, evals = 0,
              hits = 0;
  double decision_s = 0.0, throughput = 0.0;
  for (const ServingReport& b : rep.boards) {
    decisions += b.decisions;
    decision_s += b.total_decision_seconds;
    throughput += b.mean_throughput;
    slo_streams += b.total_slo_streams;
    slo_violations += b.total_slo_violations;
    evals += b.total_evaluations;
    hits += b.total_cache_hits;
  }
  EXPECT_EQ(rep.decisions, decisions);
  EXPECT_DOUBLE_EQ(rep.total_decision_seconds, decision_s);
  EXPECT_DOUBLE_EQ(rep.fleet_throughput, throughput);
  EXPECT_EQ(rep.total_slo_streams, slo_streams);
  EXPECT_EQ(rep.total_slo_violations, slo_violations);
  EXPECT_EQ(rep.total_evaluations, evals);
  EXPECT_EQ(rep.total_cache_hits, hits);
}

TEST(ClusterInvariants, SessionSnapshotIsTheBatchReportWithoutEpochLists) {
  // The daemon's status path: ClusterSession::finish() summarises each
  // board (epoch_count, no epoch list) and must render the same text as
  // the full Cluster::run report.
  workload::ArrivalProcess p;
  p.rate_per_s = 0.5;
  p.mean_lifetime_s = 8.0;
  p.max_concurrent = 5;
  util::Rng rng(util::fork_stream(22, 0));
  workload::FaultProcess faults;
  faults.mtbf_s = 6.0;
  faults.mttr_s = 3.0;
  faults.throttle_fraction = 0.5;
  const Scenario s = workload::with_faults(
      workload::sample_scenario(p, 30.0, rng), faults, 3, 22);
  ASSERT_TRUE(s.has_faults());

  const Cluster cluster(zoo(), core::make_heterogeneous_fleet(3),
                        ClusterConfig{});
  const auto policy = core::make_placement_policy("best-t");
  const ClusterReport full = cluster.run(greedy_factory(cluster), s, *policy);
  const auto live_policy = core::make_placement_policy("best-t");
  core::ClusterSession session(cluster, greedy_factory(cluster), *live_policy);
  for (const workload::ScenarioEvent& e : s.events()) session.apply(e);
  ClusterReport snapshot = session.finish();

  ASSERT_EQ(snapshot.boards.size(), full.boards.size());
  std::size_t epochs = 0;
  for (std::size_t i = 0; i < full.boards.size(); ++i) {
    EXPECT_TRUE(snapshot.boards[i].epochs.empty());
    EXPECT_EQ(full.boards[i].epoch_count, full.boards[i].epochs.size());
    EXPECT_EQ(snapshot.boards[i].epoch_count, full.boards[i].epoch_count);
    epochs += full.boards[i].epoch_count;
    snapshot.boards[i].epochs = full.boards[i].epochs;
  }
  EXPECT_GT(epochs, full.decisions);  // idle/fault epochs are counted too
  EXPECT_EQ(fingerprint(snapshot), fingerprint(full));
  // Decision latencies are wall-clock timings; align them before the text
  // comparison.
  snapshot.total_decision_seconds = full.total_decision_seconds;
  EXPECT_EQ(core::format_cluster_report(snapshot),
            core::format_cluster_report(full));
}

/// Just enough of a JSON reader for to_json's output (util::Json ships no
/// parser): objects become key -> value maps, numbers doubles.
struct JsonValue {
  double number = 0.0;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;
};

JsonValue read_json(const char*& p) {
  JsonValue v;
  const auto skip = [&p] {
    while (*p == ' ' || *p == '\n' || *p == ',' || *p == ':') ++p;
  };
  const auto read_string = [&p] {
    std::string out;
    for (++p; *p != '"'; ++p) out += (*p == '\\') ? *++p : *p;
    ++p;
    return out;
  };
  skip();
  if (*p == '{') {
    for (++p, skip(); *p != '}'; skip()) {
      const std::string key = read_string();
      skip();
      v.fields[key] = read_json(p);
    }
    ++p;
  } else if (*p == '[') {
    for (++p, skip(); *p != ']'; skip()) v.items.push_back(read_json(p));
    ++p;
  } else if (*p == '"') {
    read_string();
  } else if (*p == 't' || *p == 'f' || *p == 'n') {
    while (*p >= 'a' && *p <= 'z') ++p;
  } else {
    char* end = nullptr;
    v.number = std::strtod(p, &end);
    p = end;
  }
  return v;
}

TEST(ClusterJson, BoardsAndFleetShareTheTotalsKeysAndTheFleetIsTheirSum) {
  workload::ArrivalProcess p;
  p.rate_per_s = 0.5;
  p.mean_lifetime_s = 8.0;
  p.max_concurrent = 5;
  p.slo_fraction = 0.5;
  util::Rng rng(util::fork_stream(23, 0));
  workload::FaultProcess faults;
  faults.mtbf_s = 8.0;
  faults.mttr_s = 3.0;
  faults.throttle_fraction = 0.5;
  const Scenario s = workload::with_faults(
      workload::sample_scenario(p, 30.0, rng), faults, 3, 23);
  ClusterConfig cc;
  cc.serving.migration.enabled = true;
  const Cluster cluster(zoo(), core::make_heterogeneous_fleet(3), cc);
  const auto policy = core::make_placement_policy("best-t");
  const ClusterReport rep = cluster.run(greedy_factory(cluster), s, *policy);
  ASSERT_GT(rep.total_slo_streams, 0u);

  const std::string text = core::to_json(rep).dump(2);
  const char* cursor = text.c_str();
  const JsonValue j = read_json(cursor);
  const std::vector<std::string> totals = {
      "decisions",           "total_decision_seconds",
      "total_evaluations",   "total_cache_hits",
      "total_des_replays",   "total_slo_streams",
      "total_slo_violations", "total_migrated_segments",
      "total_migration_stall_s"};
  const std::vector<std::string> board_only = {
      "board", "epochs", "epoch_count", "mean_throughput_inf_s",
      "mean_incremental_decision_seconds", "mean_churn"};
  const std::vector<JsonValue>& fleet = j.fields.at("fleet").items;
  ASSERT_EQ(fleet.size(), rep.boards.size());

  for (std::size_t i = 0; i < fleet.size(); ++i) {
    // Exactly the board-only keys plus the fleet's totals keys.
    std::vector<std::string> expected = board_only;
    expected.insert(expected.end(), totals.begin(), totals.end());
    std::sort(expected.begin(), expected.end());
    std::vector<std::string> keys;
    for (const auto& kv : fleet[i].fields) keys.push_back(kv.first);
    EXPECT_EQ(keys, expected) << "board " << i;
    // A batch report carries every epoch it counts.
    EXPECT_EQ(static_cast<double>(fleet[i].fields.at("epochs").items.size()),
              fleet[i].fields.at("epoch_count").number)
        << "board " << i;
  }
  for (const std::string& key : totals) {
    double sum = 0.0;
    for (const JsonValue& b : fleet) sum += b.fields.at(key).number;
    ASSERT_EQ(j.fields.count(key), 1u) << key;
    EXPECT_DOUBLE_EQ(j.fields.at(key).number, sum) << key;
  }
  EXPECT_GT(j.fields.at("total_migrated_segments").number, 0.0);
}

TEST(ClusterInvariants, RepeatedRunsAreByteIdenticalForEveryPolicy) {
  workload::ArrivalProcess p;
  p.rate_per_s = 0.5;
  p.mean_lifetime_s = 10.0;
  p.max_concurrent = 5;
  p.slo_fraction = 0.3;
  util::Rng rng(util::fork_stream(31, 0));
  const Scenario s = workload::sample_scenario(p, 30.0, rng);
  ASSERT_FALSE(s.empty());

  const std::vector<BoardSpec> fleet = core::make_heterogeneous_fleet(3);
  for (const std::string& kind : core::placement_policy_kinds()) {
    const Cluster cluster(zoo(), fleet, ClusterConfig{});
    const auto policy = core::make_placement_policy(kind);
    const std::string first =
        fingerprint(cluster.run(greedy_factory(cluster), s, *policy));
    const std::string second =
        fingerprint(cluster.run(greedy_factory(cluster), s, *policy));
    EXPECT_EQ(first, second) << "policy " << kind;
    // A freshly-built identical cluster replays the same bytes too.
    const Cluster rebuilt(zoo(), fleet, ClusterConfig{});
    const auto policy2 = core::make_placement_policy(kind);
    EXPECT_EQ(first,
              fingerprint(rebuilt.run(greedy_factory(rebuilt), s, *policy2)))
        << "policy " << kind;
  }
}

TEST(ClusterAdmission, RejectsMemoryInfeasibleStreamsAndSwallowsDeparts) {
  // A board whose budget fits roughly one stream (overhead 450 MB + working
  // set) but never three: later arrivals must be rejected, and their
  // departures swallowed without touching the board.
  device::DeviceSpec tiny = device::make_hikey970();
  tiny.memory_budget_bytes = 1.1e9;
  const Cluster cluster(zoo(), {BoardSpec{"tiny", tiny}}, ClusterConfig{});

  const Scenario s = workload::parse_scenario(
      "at 0 arrive SqueezeNet\n"
      "at 1 arrive MobileNet\n"
      "at 2 arrive AlexNet\n"
      "at 3 depart MobileNet\n"
      "at 4 depart SqueezeNet\n"
      "at 5 depart AlexNet\n");
  const auto policy = core::make_placement_policy("least-loaded");
  const ClusterReport rep = cluster.run(greedy_factory(cluster), s, *policy);

  EXPECT_EQ(rep.offered_streams, 3u);
  EXPECT_GE(rep.rejected_streams, 1u);
  EXPECT_EQ(rep.admitted_streams + rep.rejected_streams, 3u);
  EXPECT_EQ(rep.rejected_departures, rep.rejected_streams);
  EXPECT_EQ(rep.departures, rep.admitted_streams);
  EXPECT_DOUBLE_EQ(
      rep.rejection_rate,
      static_cast<double>(rep.rejected_streams) / 3.0);
  // The board itself was never driven infeasible by an admitted stream.
  for (const core::EpochReport& ep : rep.boards[0].epochs)
    EXPECT_TRUE(ep.feasible) << ep.event;
}

TEST(ClusterAdmission, RejectsSloBelowTheSoloLatencyFloorEverywhere) {
  const device::CostModel cost(spec());
  const double floor_s =
      core::solo_latency_floor_s(cost, zoo().network(ModelId::kVgg19));
  ASSERT_GT(floor_s, 0.0);

  // An SLO below the floor is impossible on every board -> rejected; a
  // relaxed one admits.
  std::vector<ScenarioEvent> events;
  ScenarioEvent strict{0.0, ScenarioEventKind::kArrive, ModelId::kVgg19};
  strict.slo_ms = floor_s * 1e3 * 0.5;
  events.push_back(strict);
  ScenarioEvent leave{1.0, ScenarioEventKind::kDepart, ModelId::kVgg19};
  events.push_back(leave);
  ScenarioEvent relaxed{2.0, ScenarioEventKind::kArrive, ModelId::kVgg19};
  relaxed.slo_ms = floor_s * 1e3 * 50.0;
  events.push_back(relaxed);
  const Scenario s((std::vector<ScenarioEvent>(events)));

  const Cluster cluster(zoo(), core::make_heterogeneous_fleet(2),
                        ClusterConfig{});
  const auto policy = core::make_placement_policy("least-loaded");
  const ClusterReport rep = cluster.run(greedy_factory(cluster), s, *policy);
  EXPECT_EQ(rep.rejected_streams, 1u);
  EXPECT_EQ(rep.admitted_streams, 1u);
  EXPECT_EQ(rep.rejected_departures, 1u);
}

TEST(ClusterMigration, RescuesASaturatingArrivalAndPricesTheTransfer) {
  // Board 0 is too small for anything (admit_all bypasses admission, so the
  // arrival lands there and measures infeasible); board 1 is stock. The
  // rescue must move the stream, charge a cross-board stall, and leave the
  // stream serving on board 1 — its departure resolves there.
  device::DeviceSpec cramped = device::make_hikey970();
  cramped.memory_budget_bytes = 0.4e9;
  ClusterConfig cc;
  cc.admit_all = true;
  cc.cross_board_gbps = 1.0;
  const Cluster cluster(
      zoo(), {BoardSpec{"cramped", cramped}, BoardSpec{"stock", spec()}}, cc);

  const Scenario s = workload::parse_scenario(
      "at 0 arrive AlexNet\n"
      "at 5 depart AlexNet\n");
  const auto policy = core::make_placement_policy("least-loaded");
  const ClusterReport rep = cluster.run(greedy_factory(cluster), s, *policy);

  EXPECT_EQ(rep.migrations, 1u);
  const double weights =
      zoo().network(ModelId::kAlexNet).total_weight_bytes();
  EXPECT_DOUBLE_EQ(rep.cross_board_weight_bytes, weights);
  EXPECT_GT(rep.cross_board_stall_s, weights / 1e9);  // transfer + overhead
  // Board 0: arrive (infeasible) then the synthetic depart. Board 1: the
  // migrated-in arrive, then the scenario's depart.
  ASSERT_EQ(rep.boards[0].epochs.size(), 2u);
  EXPECT_FALSE(rep.boards[0].epochs[0].feasible);
  EXPECT_EQ(rep.boards[0].epochs[1].mix, "(idle)");
  ASSERT_EQ(rep.boards[1].epochs.size(), 2u);
  EXPECT_TRUE(rep.boards[1].epochs[0].feasible);
  EXPECT_EQ(rep.departures, 1u);
  // The stall starved part of the migrated stream's first epoch: its
  // measured throughput is below a stall-free replay on the same board.
  sched::GreedyScheduler direct(zoo(), spec());
  const ServingReport free_run = core::ServingRuntime(zoo(), board())
                                     .run(direct, workload::parse_scenario(
                                                      "at 0 arrive AlexNet\n"));
  EXPECT_LT(rep.boards[1].epochs[0].measured_throughput,
            free_run.epochs[0].measured_throughput);
}

TEST(ClusterMigration, RescueNeverReturnsToTheBoardItLeaves) {
  // Board 0 has ten times the compute but too little memory, so best-t
  // routes the arrival there (lowest utilization), the epoch measures
  // infeasible, and best-t would pick board 0 again for the rescue — its
  // utilization stays lowest even with the stream counted twice. The rescue
  // must exclude it and land on a stock board (the tie breaks to board 1).
  device::DeviceSpec fast_cramped = device::make_hikey970();
  fast_cramped.memory_budget_bytes = 0.4e9;
  for (device::ComponentSpec& c : fast_cramped.components)
    c.peak_gflops *= 10.0;
  ClusterConfig cc;
  cc.admit_all = true;
  const Cluster cluster(zoo(),
                        {BoardSpec{"fast-cramped", fast_cramped},
                         BoardSpec{"stock-a", spec()},
                         BoardSpec{"stock-b", spec()}},
                        cc);
  const auto policy = core::make_placement_policy("best-t");
  core::ClusterSession session(cluster, greedy_factory(cluster), *policy);
  ScenarioEvent arrive;
  arrive.kind = workload::ScenarioEventKind::kArrive;
  arrive.model = ModelId::kAlexNet;
  const core::ClusterSession::ApplyOutcome out = session.apply(arrive);
  EXPECT_TRUE(out.migrated);
  EXPECT_EQ(out.board, 1u);
  EXPECT_TRUE(session.session(0).idle());
  EXPECT_EQ(session.session(1).present().size(), 1u);
  EXPECT_TRUE(session.session(2).idle());
  const ClusterReport rep = session.finish();
  EXPECT_EQ(rep.migrations, 1u);
  EXPECT_EQ(rep.resident_streams, 1u);
}

TEST(ClusterPlacement, PoliciesRouteTheFirstArrivalDifferently) {
  // Empty heterogeneous fleet: least-loaded ties to board 0 (stock);
  // best-t and memory-headroom both prefer the pro board (index 1).
  const std::vector<BoardSpec> fleet = core::make_heterogeneous_fleet(3);
  const Cluster cluster(zoo(), fleet, ClusterConfig{});
  const Scenario s = workload::parse_scenario("at 0 arrive ResNet-50\n");

  const auto first_board = [&](const std::string& kind) {
    const auto policy = core::make_placement_policy(kind);
    const ClusterReport rep =
        cluster.run(greedy_factory(cluster), s, *policy);
    for (std::size_t i = 0; i < rep.boards.size(); ++i)
      if (!rep.boards[i].epochs.empty()) return i;
    return static_cast<std::size_t>(-1);
  };
  EXPECT_EQ(first_board("least-loaded"), 0u);
  EXPECT_EQ(first_board("best-t"), 1u);
  EXPECT_EQ(first_board("memory-headroom"), 1u);
}

TEST(ClusterPlacement, PolicyFactoryValidatesKinds) {
  EXPECT_EQ(core::placement_policy_kinds().size(), 3u);
  for (const std::string& kind : core::placement_policy_kinds())
    EXPECT_EQ(core::make_placement_policy(kind)->name(), kind);
  EXPECT_THROW(core::make_placement_policy("round-robin"),
               std::invalid_argument);
  EXPECT_THROW(core::make_placement_policy(""), std::invalid_argument);
}

// --- Fleet construction ---------------------------------------------------

std::string profile_text(const device::DeviceSpec& d) {
  std::ostringstream os;
  device::save_profile(d, os);
  return os.str();
}

/// \p base with every variant factor applied by hand, renamed \p name.
device::DeviceSpec scaled(device::DeviceSpec base, const std::string& name,
                          double compute, double bandwidth, double memory) {
  for (device::ComponentSpec& c : base.components) {
    c.peak_gflops *= compute;
    c.mem_bw_gbps *= bandwidth;
  }
  base.dram_bw_gbps *= bandwidth;
  base.memory_budget_bytes *= memory;
  base.name = name;
  return base;
}

TEST(ClusterFleet, StockFleetIsPinnedAndACustomBaseScalesIntoVariants) {
  // The stock fleet's names and specs are what the daemon, the benches and
  // saved reports refer to: byte-identical profiles, board for board.
  const device::DeviceSpec hk = device::make_hikey970();
  const std::vector<BoardSpec> stock = core::make_heterogeneous_fleet(4);
  const std::vector<std::string> names = {"hikey970-0", "hikey970-pro-1",
                                          "hikey970-lite-2", "hikey970-3"};
  const std::vector<device::DeviceSpec> specs = {
      scaled(hk, "hikey970", 1.0, 1.0, 1.0),
      scaled(hk, "hikey970-pro", 1.5, 1.3, 1.5),
      scaled(hk, "hikey970-lite", 0.6, 0.8, 0.75),
      scaled(hk, "hikey970", 1.0, 1.0, 1.0)};
  ASSERT_EQ(stock.size(), names.size());
  for (std::size_t i = 0; i < stock.size(); ++i) {
    EXPECT_EQ(stock[i].name, names[i]);
    EXPECT_EQ(profile_text(stock[i].device), profile_text(specs[i])) << i;
  }

  // A custom profile scales into the same variants, named after itself.
  device::DeviceSpec edge = hk;
  edge.name = "Edge-X";
  edge.memory_budget_bytes = 1e9;
  edge.components[0].peak_gflops = 100.0;
  const std::vector<BoardSpec> custom = core::make_heterogeneous_fleet(3, edge);
  ASSERT_EQ(custom.size(), 3u);
  EXPECT_EQ(custom[0].name, "edge-x-0");
  EXPECT_EQ(custom[1].name, "edge-x-pro-1");
  EXPECT_EQ(custom[2].name, "edge-x-lite-2");
  EXPECT_DOUBLE_EQ(custom[0].device.memory_budget_bytes, 1e9);
  EXPECT_DOUBLE_EQ(custom[1].device.memory_budget_bytes, 1.5e9);
  EXPECT_DOUBLE_EQ(custom[2].device.components[0].peak_gflops, 60.0);
  EXPECT_EQ(profile_text(custom[1].device),
            profile_text(scaled(edge, "edge-x-pro", 1.5, 1.3, 1.5)));
  EXPECT_EQ(profile_text(custom[2].device),
            profile_text(scaled(edge, "edge-x-lite", 0.6, 0.8, 0.75)));
}

TEST(ClusterBounds, MemoryLowerBoundAndLatencyFloorBehave) {
  const device::CostModel cost(spec());
  const sim::NetworkList none;
  EXPECT_DOUBLE_EQ(core::board_memory_lower_bound_bytes(cost, none), 0.0);

  sim::NetworkList one{&zoo().network(ModelId::kAlexNet)};
  const double b1 = core::board_memory_lower_bound_bytes(cost, one);
  EXPECT_GT(b1, spec().per_stream_overhead_bytes);  // overhead + weights

  sim::NetworkList two = one;
  two.push_back(&zoo().network(ModelId::kVgg19));
  const double b2 = core::board_memory_lower_bound_bytes(cost, two);
  EXPECT_GT(b2, b1 + zoo().network(ModelId::kVgg19).total_weight_bytes());

  // The floor is at least the per-inference overhead plus some compute, and
  // bigger networks have higher floors.
  const double alex = core::solo_latency_floor_s(
      cost, zoo().network(ModelId::kAlexNet));
  const double vgg = core::solo_latency_floor_s(
      cost, zoo().network(ModelId::kVgg19));
  EXPECT_GT(alex, spec().per_inference_overhead_s);
  EXPECT_GT(vgg, alex);
}

TEST(ClusterConfigValidation, RejectsBadTransferFields) {
  const std::vector<BoardSpec> fleet = core::make_heterogeneous_fleet(1);
  const auto bad = [&](auto mutate) {
    ClusterConfig cc;
    mutate(cc);
    EXPECT_THROW(Cluster(zoo(), fleet, cc), std::invalid_argument);
  };
  bad([](ClusterConfig& cc) { cc.cross_board_gbps = 0.0; });
  bad([](ClusterConfig& cc) { cc.cross_board_gbps = -1.0; });
  bad([](ClusterConfig& cc) {
    cc.cross_board_gbps = std::numeric_limits<double>::quiet_NaN();
  });
  bad([](ClusterConfig& cc) {
    cc.cross_board_gbps = std::numeric_limits<double>::infinity();
  });
  // The defaults themselves construct fine.
  EXPECT_NO_THROW(Cluster(zoo(), fleet, ClusterConfig{}));
}

// --- Fault tolerance ------------------------------------------------------

TEST(ClusterFaults, SingleBoardFailureFailsOverAndConserves) {
  // Three stock-ish boards, three streams placed round the fleet, then board
  // holding at least one stream fails. least-loaded routes the three
  // arrivals to boards 0,1,2 in order, so failing board 1 evacuates VGG-16.
  const Cluster cluster(zoo(), core::make_heterogeneous_fleet(3),
                        ClusterConfig{});
  const Scenario s = workload::parse_scenario(
      "at 0 arrive AlexNet\n"
      "at 1 arrive VGG-16\n"
      "at 2 arrive MobileNet\n"
      "at 5 fail board 1\n"
      "at 8 depart VGG-16\n"
      "at 9 depart AlexNet\n"
      "at 10 recover board 1\n"
      "at 12 depart MobileNet\n");
  const auto policy = core::make_placement_policy("least-loaded");
  const ClusterReport rep = cluster.run(greedy_factory(cluster), s, *policy);

  EXPECT_EQ(rep.board_failures, 1u);
  EXPECT_EQ(rep.board_recoveries, 1u);
  EXPECT_EQ(rep.failovers, 1u);
  EXPECT_EQ(rep.shed_streams, 0u);  // survivors had room
  EXPECT_GT(rep.failover_stall_s, 0.0);
  EXPECT_DOUBLE_EQ(
      rep.failover_weight_bytes,
      zoo().network(ModelId::kVgg16).total_weight_bytes());
  // Downtime is exactly the fail->recover window.
  EXPECT_DOUBLE_EQ(rep.downtime_board_s, 5.0);
  // Conservation: every admitted stream departed, was shed, or is resident.
  EXPECT_EQ(rep.admitted_streams, 3u);
  EXPECT_EQ(rep.admitted_streams,
            rep.departures + rep.shed_streams + rep.resident_streams);
  EXPECT_EQ(rep.resident_streams, 0u);  // fully drained
  // The evacuated stream's departure resolved on its new board.
  EXPECT_EQ(rep.departures, 3u);
}

TEST(ClusterFaults, FailureWithNoSurvivorsShedsAndSwallowsDepartures) {
  // A 1-board fleet: failing the only board shed its resident streams; their
  // later departures are swallowed as shed, not applied or rejected.
  const Cluster cluster(zoo(), core::make_heterogeneous_fleet(1),
                        ClusterConfig{});
  const Scenario s = workload::parse_scenario(
      "at 0 arrive AlexNet\n"
      "at 1 arrive MobileNet\n"
      "at 3 fail board 0\n"
      "at 5 depart AlexNet\n"
      "at 6 depart MobileNet\n");
  const auto policy = core::make_placement_policy("least-loaded");
  const ClusterReport rep = cluster.run(greedy_factory(cluster), s, *policy);
  EXPECT_EQ(rep.admitted_streams, 2u);
  EXPECT_EQ(rep.shed_streams, 2u);
  EXPECT_EQ(rep.shed_departures, 2u);
  EXPECT_EQ(rep.failovers, 0u);
  EXPECT_EQ(rep.departures, 0u);
  EXPECT_EQ(rep.rejected_departures, 0u);
  EXPECT_EQ(rep.admitted_streams,
            rep.departures + rep.shed_streams + rep.resident_streams);
  // The board stayed down through the end: downtime = horizon - fail time.
  EXPECT_DOUBLE_EQ(rep.downtime_board_s, 3.0);
  // A failed board admits nothing: a post-failure arrival is rejected.
  const Scenario s2 = workload::parse_scenario(
      "at 0 arrive AlexNet\n"
      "at 1 fail board 0\n"
      "at 2 arrive MobileNet\n");
  const auto policy2 = core::make_placement_policy("least-loaded");
  const ClusterReport rep2 =
      cluster.run(greedy_factory(cluster), s2, *policy2);
  EXPECT_EQ(rep2.rejected_streams, 1u);
  EXPECT_EQ(rep2.shed_streams, 1u);
}

TEST(ClusterFaults, ThrottleDegradesThroughputUntilRecovery) {
  const Cluster cluster(zoo(), core::make_heterogeneous_fleet(1),
                        ClusterConfig{});
  const Scenario plain = workload::parse_scenario("at 0 arrive AlexNet\n");
  const Scenario throttled = workload::parse_scenario(
      "at 0 arrive AlexNet\n"
      "at 2 throttle board 0 0.25\n"
      "at 4 recover board 0\n");
  const auto policy = core::make_placement_policy("least-loaded");
  const ClusterReport base =
      cluster.run(greedy_factory(cluster), plain, *policy);
  const auto policy2 = core::make_placement_policy("least-loaded");
  const ClusterReport rep =
      cluster.run(greedy_factory(cluster), throttled, *policy2);

  EXPECT_EQ(rep.board_throttles, 1u);
  EXPECT_EQ(rep.board_recoveries, 1u);
  EXPECT_GE(rep.degraded_epochs, 1u);
  EXPECT_EQ(rep.downtime_board_s, 0.0);  // throttled is degraded, not down
  // The board re-decided at the throttle and at recovery: three epochs, and
  // the throttled one serves at a fraction of the healthy rate.
  ASSERT_EQ(rep.boards[0].epochs.size(), 3u);
  const double healthy = base.boards[0].epochs[0].measured_throughput;
  const double degraded = rep.boards[0].epochs[1].measured_throughput;
  const double recovered = rep.boards[0].epochs[2].measured_throughput;
  EXPECT_LT(degraded, healthy * 0.5);
  EXPECT_DOUBLE_EQ(recovered, healthy);
  // Residency, not departure: the stream rides the throttle.
  EXPECT_EQ(rep.resident_streams, 1u);
  EXPECT_EQ(rep.admitted_streams,
            rep.departures + rep.shed_streams + rep.resident_streams);
}

TEST(ClusterFaults, ThrottleToFullSpeedIsNotADegradedEpoch) {
  // `throttle board 0 1` refreshes the resident mix, but the board runs at
  // full speed — the rule `recover` already applies to a x1 board — so no
  // epoch counts as degraded. A real throttle counts its refresh and every
  // later epoch it serves.
  const Cluster cluster(zoo(), core::make_heterogeneous_fleet(1),
                        ClusterConfig{});
  const auto degraded = [&cluster](const char* factor) {
    const Scenario s = workload::parse_scenario(
        std::string("at 0 arrive AlexNet\n"
                    "at 2 throttle board 0 ") +
        factor +
        "\n"
        "at 3 arrive MobileNet\n");
    const auto policy = core::make_placement_policy("least-loaded");
    const ClusterReport rep = cluster.run(greedy_factory(cluster), s, *policy);
    EXPECT_EQ(rep.board_throttles, 1u);
    EXPECT_EQ(rep.boards[0].epoch_count, 3u);
    return rep.degraded_epochs;
  };
  EXPECT_EQ(degraded("1"), 0u);
  EXPECT_EQ(degraded("0.5"), 2u);
}

TEST(ClusterFaults, RecoveryRebalancePullsAStreamBackWhenEnabled) {
  // Two identical boards; board 1 fails, its stream fails over to board 0
  // (which then holds 2 streams vs the recovered board's 0). With
  // rebalance_on_recovery the recovery pulls one stream back.
  const std::vector<BoardSpec> fleet = {BoardSpec{"a", spec()},
                                        BoardSpec{"b", spec()}};
  const Scenario s = workload::parse_scenario(
      "at 0 arrive AlexNet\n"
      "at 1 arrive MobileNet\n"
      "at 3 fail board 1\n"
      "at 6 recover board 1\n"
      "at 10 depart AlexNet\n"
      "at 11 depart MobileNet\n");
  ClusterConfig cc;
  cc.rebalance_on_recovery = true;
  const Cluster on(zoo(), fleet, cc);
  const auto policy = core::make_placement_policy("least-loaded");
  const ClusterReport rep = on.run(greedy_factory(on), s, *policy);
  EXPECT_EQ(rep.failovers, 1u);
  EXPECT_EQ(rep.rebalances, 1u);
  EXPECT_GT(rep.rebalance_stall_s, 0.0);
  EXPECT_EQ(rep.departures, 2u);
  EXPECT_EQ(rep.admitted_streams,
            rep.departures + rep.shed_streams + rep.resident_streams);

  // Off by default: the recovered board stays empty.
  const Cluster off(zoo(), fleet, ClusterConfig{});
  const auto policy2 = core::make_placement_policy("least-loaded");
  const ClusterReport rep2 = off.run(greedy_factory(off), s, *policy2);
  EXPECT_EQ(rep2.rebalances, 0u);
  EXPECT_EQ(rep2.departures, 2u);
}

TEST(ClusterFaults, FaultScenarioSpanningMoreBoardsThanFleetIsRejected) {
  const Cluster cluster(zoo(), core::make_heterogeneous_fleet(2),
                        ClusterConfig{});
  const Scenario s = workload::parse_scenario(
      "at 0 arrive AlexNet\n"
      "at 1 fail board 5\n");
  const auto policy = core::make_placement_policy("least-loaded");
  EXPECT_THROW(cluster.run(greedy_factory(cluster), s, *policy),
               std::invalid_argument);
}

TEST(ClusterFaults, FaultedRunsAreByteIdenticalAcrossReruns) {
  workload::ArrivalProcess p;
  p.rate_per_s = 0.5;
  p.mean_lifetime_s = 10.0;
  p.max_concurrent = 5;
  util::Rng rng(util::fork_stream(61, 0));
  const Scenario base = workload::sample_scenario(p, 30.0, rng);
  ASSERT_FALSE(base.empty());
  workload::FaultProcess fp;
  fp.mtbf_s = 8.0;
  fp.mttr_s = 4.0;
  fp.throttle_fraction = 0.5;
  const Scenario s = workload::with_faults(base, fp, 3, 61);
  ASSERT_TRUE(s.has_faults());

  ClusterConfig cc;
  cc.rebalance_on_recovery = true;
  const std::vector<BoardSpec> fleet = core::make_heterogeneous_fleet(3);
  const Cluster cluster(zoo(), fleet, cc);
  const auto policy = core::make_placement_policy("least-loaded");
  const std::string first =
      fingerprint(cluster.run(greedy_factory(cluster), s, *policy));
  const auto policy2 = core::make_placement_policy("least-loaded");
  EXPECT_EQ(first,
            fingerprint(cluster.run(greedy_factory(cluster), s, *policy2)));
  // And a freshly-built cluster replays the same bytes (no state leaks
  // through throttles or downed boards between runs).
  const Cluster rebuilt(zoo(), fleet, cc);
  const auto policy3 = core::make_placement_policy("least-loaded");
  EXPECT_EQ(first,
            fingerprint(rebuilt.run(greedy_factory(rebuilt), s, *policy3)));
}

TEST(ClusterConfigValidation, RejectsEmptyFleetAndNullFactory) {
  EXPECT_THROW(Cluster(zoo(), {}, ClusterConfig{}), std::invalid_argument);
  const Cluster cluster(zoo(), core::make_heterogeneous_fleet(1),
                        ClusterConfig{});
  const Scenario s = workload::parse_scenario("at 0 arrive AlexNet\n");
  const auto policy = core::make_placement_policy("least-loaded");
  EXPECT_THROW(cluster.run(core::SchedulerFactory{}, s, *policy),
               std::invalid_argument);
  EXPECT_THROW(cluster.run(greedy_factory(cluster), Scenario{}, *policy),
               std::invalid_argument);
}

}  // namespace

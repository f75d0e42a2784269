/// \file omniboost_cli.cpp
/// End-to-end command-line front end for the framework: profiles the
/// (simulated) board, trains or loads the throughput estimator, schedules a
/// user-specified multi-DNN mix with a chosen scheduler, and reports the
/// mapping plus the board-measured throughput — in text or JSON.
///
/// Two modes: the default one-shot decision for a fixed --mix, and the
/// `serve` subcommand. `serve` builds one core::Cluster of --boards boards
/// (one by default) from the device profile, then either replays a dynamic
/// scenario (model arrivals and departures, from a trace file or the seeded
/// generator) through it, reporting per-board epochs (throughput, decision
/// latency, mapping churn) and the fleet summary, or serves live commands
/// from it as a daemon (--listen).
///
/// Examples:
///   omniboost_cli --mix VGG-19,AlexNet,MobileNet
///   omniboost_cli --mix vgg16,resnet50,alexnet,mobilenet --scheduler ga
///   omniboost_cli --mix alexnet --save-estimator est.bin
///   omniboost_cli --mix alexnet --estimator-file est.bin --json
///   omniboost_cli serve --events 10 --estimator-file est.bin
///   omniboost_cli serve --scenario trace.txt --cold --json
///   omniboost_cli serve --events 12 --slo 150 --migration-cost 1 --json
///   omniboost_cli serve --boards 3 --arrival poisson:0.5 --scheduler greedy
///   omniboost_cli serve --boards 4 --arrival flash:0.2:30:10:8 --json
///   omniboost_cli serve --listen 0 --boards 2 --scheduler greedy
///   omniboost_cli client localhost:7070 arrive MobileNet slo 100

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/dataset.hpp"
#include "device/profile.hpp"
#include "core/omniboost.hpp"
#include "core/serving.hpp"
#include "nn/kernel.hpp"
#include "nn/loss.hpp"
#include "sched/baseline.hpp"
#include "sched/bnb.hpp"
#include "sched/fallback.hpp"
#include "sched/ga.hpp"
#include "sched/greedy.hpp"
#include "sched/local_search.hpp"
#include "sched/mosaic.hpp"
#include "sched/search_common.hpp"
#include "sim/des.hpp"
#include "sim/gantt.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/net.hpp"
#include "workload/arrival.hpp"
#include "workload/faults.hpp"
#include "workload/scenario.hpp"
#include "workload/workload.hpp"

#include "daemon.hpp"

namespace {

using namespace omniboost;

workload::Workload parse_mix(const std::string& csv) {
  workload::Workload w;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token.empty()) continue;
    models::ModelId id;
    if (!models::parse_model_name(token, id)) {
      std::string known;
      for (const auto m : models::kAllModels) {
        if (!known.empty()) known += ", ";
        known += std::string(models::model_name(m));
      }
      throw std::invalid_argument("unknown model '" + token +
                                  "'; known models: " + known);
    }
    w.mix.push_back(id);
  }
  if (w.mix.empty()) throw std::invalid_argument("--mix is empty");
  return w;
}

/// A validated count flag: --<name> as a size_t, at least \p min. Read
/// through here so a negative value fails at the flag instead of wrapping to
/// a huge count that dies (or hangs) far away.
std::size_t get_count(const util::ArgParser& args, const std::string& name,
                      std::size_t min) {
  const std::int64_t raw = args.get_int(name);
  if (raw < static_cast<std::int64_t>(min))
    throw std::invalid_argument("--" + name + " must be >= " +
                                std::to_string(min));
  return static_cast<std::size_t>(raw);
}

/// The scheduler and design-time knobs both modes share, validated once up
/// front so a bad count fails whatever the scheduler is.
struct SchedulerOptions {
  std::string kind;
  std::size_t budget = 0;
  std::size_t depth = 0;
  std::size_t batch = 0;
  std::size_t samples = 0;         ///< estimator training workloads
  std::size_t epochs = 0;          ///< estimator training epochs
  std::size_t design_workers = 0;  ///< design-time parallelism
  std::uint64_t seed = 0;
  double bnb_timeout_ms = 0.0;
  double rollout_fraction = 0.4;  ///< serve only
  bool slo_hard_prune = false;    ///< serve only
};

SchedulerOptions parse_scheduler_options(const util::ArgParser& args) {
  SchedulerOptions o;
  o.kind = args.get("scheduler");
  o.budget = get_count(args, "budget", 1);
  o.depth = get_count(args, "depth", 1);
  o.batch = get_count(args, "batch", 1);
  o.samples = get_count(args, "samples", 1);
  o.epochs = get_count(args, "epochs", 1);
  o.design_workers = get_count(args, "design-workers", 0);
  o.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  o.bnb_timeout_ms = args.get_double("bnb-timeout-ms");
  if (o.bnb_timeout_ms < 0.0)
    throw std::invalid_argument("--bnb-timeout-ms must be >= 0");
  return o;
}

std::unique_ptr<core::IScheduler> make_scheduler(
    const SchedulerOptions& o, const models::ModelZoo& zoo,
    const device::DeviceSpec& device, const core::EmbeddingTensor& embedding,
    std::shared_ptr<const core::ThroughputEstimator> estimator) {
  const std::string& kind = o.kind;
  if (kind == "omniboost") {
    core::OmniBoostConfig cfg;
    cfg.mcts.budget = o.budget;
    cfg.mcts.max_depth = o.depth;
    cfg.mcts.seed = o.seed;
    cfg.batch_size = o.batch;
    cfg.rollout_fraction = o.rollout_fraction;
    cfg.slo_hard_prune = o.slo_hard_prune;
    return std::make_unique<core::OmniBoostScheduler>(zoo, embedding,
                                                      std::move(estimator),
                                                      cfg);
  }
  if (kind == "baseline") {
    return std::make_unique<sched::AllOnScheduler>(
        zoo, device::ComponentId::kGpu, "Baseline");
  }
  if (kind == "mosaic") {
    return std::make_unique<sched::MosaicScheduler>(zoo, device);
  }
  if (kind == "ga") {
    sched::GaConfig cfg;
    cfg.seed = o.seed;
    return std::make_unique<sched::GaScheduler>(zoo, device, cfg);
  }
  if (kind == "greedy") {
    return std::make_unique<sched::GreedyScheduler>(zoo, device);
  }
  if (kind == "bnb") {
    sched::BnbConfig cfg;
    cfg.timeout_ms = o.bnb_timeout_ms;
    return std::make_unique<sched::BranchAndBoundScheduler>("BnB", zoo, device,
                                                            cfg);
  }
  if (kind == "random") {
    sched::LocalSearchConfig cfg;
    cfg.budget = o.budget;
    cfg.seed = o.seed;
    return std::make_unique<sched::RandomSearchScheduler>(
        "RandomSearch", zoo,
        sched::estimator_evaluator_factory(zoo, embedding,
                                           std::move(estimator)),
        cfg);
  }
  if (kind == "annealing") {
    sched::AnnealingConfig cfg;
    cfg.budget = o.budget;
    cfg.seed = o.seed;
    return std::make_unique<sched::SimulatedAnnealingScheduler>(
        "Annealing", zoo,
        sched::estimator_evaluator_factory(zoo, embedding,
                                           std::move(estimator)),
        cfg);
  }
  throw std::invalid_argument(
      "unknown scheduler '" + kind +
      "' (omniboost|baseline|mosaic|ga|greedy|bnb|random|annealing)");
}

/// True when \p kind queries the trained throughput estimator. BnB reasons
/// over the analytic model directly (its bound must be admissible w.r.t. a
/// deterministic objective), so it never trains one.
bool needs_estimator(const std::string& kind) {
  return kind == "omniboost" || kind == "random" || kind == "annealing";
}

/// Options shared by the one-shot and `serve` modes — declared through one
/// helper so defaults and help text cannot drift between the two parsers.
void declare_common_options(util::ArgParser& args) {
  args.option("scheduler",
              "omniboost|baseline|mosaic|ga|greedy|bnb|random|annealing",
              "omniboost")
      .option("budget", "search budget (estimator queries)", "500")
      .option("bnb-timeout-ms",
              "branch-and-bound wall-clock budget in ms; 0 = run to a proved "
              "optimum (only sane on small mixes)",
              "0")
      .option("depth", "MCTS tree-expansion depth limit", "100")
      .option("batch", "leaf evaluations per batched estimator query", "1")
      .option("samples", "estimator training workloads", "500")
      .option("epochs", "estimator training epochs", "100")
      .option("kernel",
              "compute kernel for the estimator CNN: gemm (fast), simd "
              "(runtime-dispatched AVX2/NEON micro-kernels; degrades to "
              "gemm on hosts without the ISA) or reference (the paper's "
              "bit-frozen loops)",
              "gemm")
      .option("design-workers",
              "design-time parallelism (dataset generation + validation); "
              "0 = the paper's exact sequential pipeline, N >= 1 = the "
              "slot-seeded parallel pipeline (byte-identical for any N)",
              "0")
      .option("seed", "master seed", "1")
      .option("estimator-file", "load a trained estimator instead of training")
      .option("save-estimator", "write the trained estimator to this path")
      .option("device-file",
              "board profile (INI) instead of the built-in HiKey970");
}

/// Applies --kernel: parses the requested kernel, reports a downgrade
/// (simd on a host without the ISA) on stderr — stderr so --json stdout
/// stays parseable — and installs the effective kernel as the process-wide
/// default before any network is built.
void apply_kernel_option(const util::ArgParser& args) {
  const nn::KernelKind requested = nn::parse_kernel_name(args.get("kernel"));
  const std::string note = nn::kernel_resolution_note(requested);
  if (!note.empty()) std::fprintf(stderr, "note: %s\n", note.c_str());
  nn::set_default_kernel(nn::resolve_kernel(requested));
}

/// Board model selection shared by both modes.
device::DeviceSpec build_device(const util::ArgParser& args) {
  return args.has("device-file")
             ? device::load_profile_file(args.get("device-file"))
             : device::make_hikey970();
}

/// Trains or loads the throughput estimator (shared by both CLI modes; the
/// relevant options come from declare_common_options on both parsers).
std::shared_ptr<const core::ThroughputEstimator> prepare_estimator(
    const util::ArgParser& args, const SchedulerOptions& opts,
    const models::ModelZoo& zoo, const core::EmbeddingTensor& embedding,
    const sim::DesSimulator& board, bool quiet) {
  if (args.has("estimator-file")) {
    const std::string est_path = args.get("estimator-file");
    auto estimator = std::make_shared<const core::ThroughputEstimator>(
        core::ThroughputEstimator::load_file(est_path));
    if (!quiet) std::printf("loaded estimator from %s\n", est_path.c_str());
    return estimator;
  }
  core::DatasetConfig dc;
  dc.samples = opts.samples;
  dc.seed = opts.seed + 41;
  dc.workers = opts.design_workers;
  nn::TrainConfig tc;
  tc.epochs = opts.epochs;
  tc.workers = std::max<std::size_t>(dc.workers, 1);
  if (!quiet)
    std::printf("training estimator (%zu workloads, %zu epochs)...\n",
                dc.samples, tc.epochs);
  const core::SampleSet data =
      core::generate_dataset(zoo, embedding, board, dc);
  auto est = std::make_shared<core::ThroughputEstimator>(
      embedding.models_dim(), embedding.layers_dim());
  nn::L1Loss l1;
  const auto history = est->fit(data, dc.samples / 5, l1, tc);
  if (!quiet)
    std::printf("final train loss %.4f, val loss %.4f\n",
                history.train_loss.back(), history.val_loss.back());
  if (args.has("save-estimator")) {
    const std::string save_path = args.get("save-estimator");
    est->save_file(save_path);
    if (!quiet) std::printf("saved estimator to %s\n", save_path.c_str());
  }
  return est;
}

int run(int argc, char** argv) {
  util::ArgParser args(
      "omniboost_cli",
      "schedule a multi-DNN mix on the simulated HiKey970 and report "
      "throughput");
  args.option("mix", "comma-separated DNN list, e.g. VGG-19,AlexNet,MobileNet");
  declare_common_options(args);
  args.option("save-device-profile", "write the active board profile and exit")
      .flag("json", "emit a machine-readable JSON report")
      .flag("trace", "include per-component utilization in the report")
      .flag("gantt", "render an ASCII execution timeline (text mode only)");
  if (!args.parse(argc, argv)) return 0;

  const workload::Workload w = parse_mix(args.get("mix"));
  const SchedulerOptions opts = parse_scheduler_options(args);
  // Applied before any network is built: layers capture the default at
  // construction, so this one call covers training, loading, and search.
  apply_kernel_option(args);
  const bool as_json = args.get_flag("json");
  const bool with_trace = args.get_flag("trace");
  const bool with_gantt = args.get_flag("gantt");

  // --- Substrate: board model, zoo, kernel profiling (embedding tensor).
  const device::DeviceSpec device = build_device(args);
  if (args.has("save-device-profile")) {
    const std::string path = args.get("save-device-profile");
    device::save_profile_file(device, path);
    std::printf("wrote device profile for '%s' to %s\n", device.name.c_str(),
                path.c_str());
    return 0;
  }
  const models::ModelZoo zoo;
  const device::CostModel cost(device);
  const core::EmbeddingTensor embedding(zoo, cost);
  const sim::DesSimulator board(device);

  // --- Design time: train or load the estimator (model-driven schedulers).
  std::shared_ptr<const core::ThroughputEstimator> estimator;
  if (needs_estimator(opts.kind)) {
    estimator = prepare_estimator(args, opts, zoo, embedding, board, as_json);
  }

  // --- Run time: one scheduling decision plus a board measurement.
  auto scheduler = make_scheduler(opts, zoo, device, embedding, estimator);
  const core::ScheduleResult result = scheduler->schedule(w);

  const auto nets = w.resolve(zoo);
  const auto traced = board.simulate_traced(nets, result.mapping, with_gantt);
  const sim::ThroughputReport& measured = traced.report;

  // Baseline comparison: everything on the GPU.
  const sim::Mapping all_gpu = sim::Mapping::all_on(
      w.layer_counts(zoo), device::ComponentId::kGpu);
  const double baseline_t = board.simulate(nets, all_gpu).avg_throughput;

  if (as_json) {
    util::Json out = util::Json::object();
    out.set("mix", util::Json::string(w.describe()));
    out.set("scheduler", util::Json::string(scheduler->name()));
    out.set("feasible", util::Json::boolean(measured.feasible));
    out.set("avg_throughput_inf_s", util::Json::number(measured.avg_throughput));
    out.set("baseline_gpu_inf_s", util::Json::number(baseline_t));
    out.set("speedup_vs_baseline",
            util::Json::number(baseline_t > 0.0
                                   ? measured.avg_throughput / baseline_t
                                   : 0.0));
    out.set("decision_seconds", util::Json::number(result.decision_seconds));
    out.set("evaluations", util::Json::number(result.evaluations));
    out.set("cache_hits", util::Json::number(result.cache_hits));
    // Bound certificate (branch-and-bound only): the analytic objective of
    // the returned mapping lies in [lower_bound, upper_bound].
    if (result.lower_bound)
      out.set("lower_bound_inf_s", util::Json::number(*result.lower_bound));
    if (result.upper_bound)
      out.set("upper_bound_inf_s", util::Json::number(*result.upper_bound));
    if (result.proved_optimal)
      out.set("proved_optimal", util::Json::boolean(*result.proved_optimal));
    if (result.nodes_expanded)
      out.set("nodes_expanded",
              util::Json::number(
                  static_cast<double>(*result.nodes_expanded)));
    util::Json dnns = util::Json::array();
    for (std::size_t d = 0; d < w.size(); ++d) {
      util::Json j = util::Json::object();
      j.set("model", util::Json::string(std::string(
                         models::model_name(w.mix[d]))));
      j.set("rate_inf_s", util::Json::number(measured.per_dnn_rate[d]));
      util::Json segs = util::Json::array();
      for (const auto& seg : sim::extract_segments(result.mapping.assignment(d))) {
        util::Json sj = util::Json::object();
        sj.set("layers", util::Json::string(std::to_string(seg.first) + "-" +
                                            std::to_string(seg.last)));
        sj.set("component", util::Json::string(std::string(
                                device::component_name(seg.comp))));
        segs.push_back(std::move(sj));
      }
      j.set("pipeline", std::move(segs));
      dnns.push_back(std::move(j));
    }
    out.set("dnns", std::move(dnns));
    if (with_trace) {
      util::Json comps = util::Json::array();
      for (const auto c : device::kAllComponents) {
        const auto& cu = traced.trace.components[device::component_index(c)];
        util::Json cj = util::Json::object();
        cj.set("component", util::Json::string(std::string(
                                device::component_name(c))));
        cj.set("utilization", util::Json::number(cu.utilization()));
        cj.set("max_queue_depth", util::Json::number(cu.max_queue_depth));
        comps.push_back(std::move(cj));
      }
      out.set("utilization", std::move(comps));
    }
    std::printf("%s\n", out.dump(2).c_str());
    return 0;
  }

  std::printf("\nmix: %s | scheduler: %s\n", w.describe().c_str(),
              scheduler->name().c_str());
  std::printf("decision: %.3f s (%zu evaluator queries, %zu memo hits)\n",
              result.decision_seconds, result.evaluations, result.cache_hits);
  if (result.lower_bound && result.upper_bound) {
    std::printf("bound certificate: analytic objective in [%.3f, %.3f] inf/s "
                "(%s, %zu nodes)\n",
                *result.lower_bound, *result.upper_bound,
                result.proved_optimal.value_or(false) ? "proved optimal"
                                                      : "budget exhausted",
                result.nodes_expanded.value_or(0));
  }
  if (!measured.feasible) {
    std::printf("RESULT: workload exceeds board memory (unresponsive)\n");
    return 1;
  }

  util::Table table({"DNN", "pipeline (layers -> component)", "inf/s"});
  for (std::size_t d = 0; d < w.size(); ++d) {
    std::string pipeline;
    for (const auto& seg : sim::extract_segments(result.mapping.assignment(d))) {
      if (!pipeline.empty()) pipeline += " | ";
      pipeline += std::to_string(seg.first) + "-" + std::to_string(seg.last) +
                  " -> " + std::string(device::component_name(seg.comp));
    }
    table.add_row({std::string(models::model_name(w.mix[d])), pipeline,
                   util::fmt(measured.per_dnn_rate[d], 2)});
  }
  table.print(std::cout);

  std::printf("\naverage throughput T: %.3f inf/s (baseline all-on-GPU: %.3f, "
              "speedup x%.2f)\n",
              measured.avg_throughput, baseline_t,
              baseline_t > 0.0 ? measured.avg_throughput / baseline_t : 0.0);
  if (with_trace) {
    util::Table ut({"component", "utilization", "max queue"});
    for (const auto c : device::kAllComponents) {
      const auto& cu = traced.trace.components[device::component_index(c)];
      ut.add_row({std::string(device::component_name(c)),
                  util::fmt(100.0 * cu.utilization(), 1) + "%",
                  std::to_string(cu.max_queue_depth)});
    }
    ut.print(std::cout);
  }
  if (with_gantt) {
    std::printf("\nexecution timeline (one glyph per stream, '.' = idle):\n%s",
                sim::render_gantt(traced.trace).c_str());
  }
  return 0;
}

/// One board's share of a `serve` report: its per-epoch table and summary
/// footer.
void print_board_report(const core::ServingReport& report,
                        bool migration_priced) {
  util::Table table({"t (s)", "event", "mix", "decision s", "evals", "hits",
                     "T inf/s", "churn", "SLO", "stall ms"});
  for (const core::EpochReport& ep : report.epochs) {
    table.add_row(
        {util::fmt(ep.time_s, 2), ep.event, ep.mix,
         ep.mix_size == 0 ? "-" : util::fmt(ep.decision.decision_seconds, 3),
         std::to_string(ep.decision.evaluations),
         std::to_string(ep.decision.cache_hits),
         ep.mix_size == 0 ? "-" : util::fmt(ep.measured_throughput, 2),
         ep.surviving_layers == 0 ? "-"
                                  : util::fmt(100.0 * ep.churn, 1) + "%",
         // "violations/streams-under-SLO" for the epoch; "-" = none set.
         ep.slo_streams == 0 ? "-"
                             : std::to_string(ep.slo_violations) + "/" +
                                   std::to_string(ep.slo_streams),
         ep.migration_stall_s > 0.0
             ? util::fmt(1e3 * ep.migration_stall_s, 1)
             : "-"});
  }
  table.print(std::cout);
  std::printf("\n%zu decisions | mean T %.3f inf/s | mean incremental "
              "decision %.3f s | mean churn %.1f%% | %zu evaluator queries "
              "(%zu memo hits)\n",
              report.decisions, report.mean_throughput,
              report.mean_incremental_decision_seconds,
              100.0 * report.mean_churn, report.total_evaluations,
              report.total_cache_hits);
  if (report.total_des_replays > 0)
    std::printf("SLO replays: %zu DES replays executed\n",
                report.total_des_replays);
  if (report.total_slo_streams > 0)
    std::printf("SLO: %zu violations over %zu stream-epochs under an SLO\n",
                report.total_slo_violations, report.total_slo_streams);
  if (migration_priced)
    std::printf("migration: %zu segments moved, %.1f ms total stall charged\n",
                report.total_migrated_segments,
                1e3 * report.total_migration_stall_s);
}

/// The `serve` subcommand: dynamic multi-DNN serving over a scenario.
int run_serve(int argc, char** argv) {
  util::ArgParser args(
      "omniboost_cli serve",
      "replay a dynamic arrival/departure scenario through a fleet of "
      "boards and report per-epoch throughput, decision latency and "
      "mapping churn");
  args.option("scenario",
              "scenario trace file (`at <t> <arrive|depart> <model>` lines); "
              "omit to generate one from the seed")
      .option("events", "generated scenario: arrive/depart event count", "10")
      .option("max-concurrent", "generated scenario: concurrency ceiling", "4")
      .option("min-concurrent", "generated scenario: concurrency floor", "1")
      .option("depart-bias",
              "generated scenario: departure probability when legal", "0.4")
      .option("interarrival", "generated scenario: mean event gap (s)", "5")
      .option("save-scenario", "write the replayed scenario trace to this path")
      .option("rollout-fraction",
              "warm-started incremental budget as a fraction of --budget",
              "0.4")
      .option("slo",
              "latency SLO in ms attached to every arriving stream that "
              "lacks an explicit `slo` clause; 0 = off",
              "0")
      .option("migration-cost",
              "churn-cost scale: charge each moved segment's weight "
              "re-upload + warm-up as a one-off stall in the epoch "
              "measurement (sim::MigrationCostModel); 0 = migrations are "
              "free (the default)",
              "0")
      .option("boards",
              "fleet size: arrivals are admitted and routed across a "
              "core::Cluster of this many boards, cycling the device "
              "profile and its -pro/-lite variants (1 = the profile alone)",
              "1")
      .option("arrival",
              "draw the scenario from a stochastic arrival process instead "
              "of the event-count generator: poisson:<rate>, "
              "diurnal:<rate>:<period_s>:<amplitude>, or "
              "flash:<rate>:<start_s>:<width_s>:<height>")
      .option("horizon", "arrival process: sampled horizon (s)", "120")
      .option("lifetime", "arrival process: mean stream lifetime (s)", "20")
      .option("placement",
              "cluster routing policy: least-loaded|best-t|memory-headroom",
              "least-loaded")
      .option("cross-gbps",
              "cluster: cross-board weight-transfer bandwidth (GB/s) priced "
              "into rescue migrations",
              "1")
      .option("faults",
              "weave a seeded board-fault process into the scenario: "
              "mtbf:<s>:mttr:<s>[:throttle:<fraction>[:<min>:<max>]]")
      .option("decision-deadline-ms",
              "wrap every scheduler in a wall-clock decision deadline with "
              "Greedy fallback (sched::FallbackScheduler); 0 serves every "
              "epoch via Greedy")
      .option("listen",
              "run as a live serving daemon on this loopback TCP port "
              "instead of replaying a scenario (0 = ephemeral, printed as "
              "`listening on <port>`); drive it with `omniboost_cli client`")
      .option("time-scale",
              "daemon: scenario seconds per elapsed real second — commands "
              "are timestamped at real-elapsed * time-scale (tests use 100 "
              "to compress idle time)",
              "1")
      .option("background-slice-ms",
              "daemon: wall-clock budget of each idle-time background "
              "re-search slice (branch-and-bound refinement of an installed "
              "mapping); 0 disables background re-search",
              "25");
  declare_common_options(args);
  args.flag("cold",
            "disable warm-started rescheduling: every event gets a cold "
            "full-budget decision (the stability/latency baseline)")
      .flag("slo-hard-prune",
            "hard-prune SLO-breaking candidates in the warm search instead "
            "of shaping their reward down")
      .flag("no-migrate",
            "cluster: disable rescue migrations off saturating boards")
      .flag("rebalance",
            "cluster: pull streams back onto boards recovering from a fault")
      .flag("json", "emit a machine-readable JSON report");
  if (!args.parse(argc, argv)) return 0;

  apply_kernel_option(args);
  SchedulerOptions opts = parse_scheduler_options(args);
  opts.rollout_fraction = args.get_double("rollout-fraction");
  if (!(opts.rollout_fraction > 0.0 && opts.rollout_fraction <= 1.0))
    throw std::invalid_argument("--rollout-fraction must be in (0, 1]");
  opts.slo_hard_prune = args.get_flag("slo-hard-prune");
  const std::uint64_t seed = opts.seed;
  const bool as_json = args.get_flag("json");
  const bool warm = !args.get_flag("cold");

  // --- The scenario: load a trace, or draw one from the master seed.
  workload::Scenario scenario;
  if (args.has("scenario")) {
    scenario = workload::load_scenario_file(args.get("scenario"));
  } else if (args.has("arrival")) {
    workload::ArrivalProcess process =
        workload::parse_arrival_spec(args.get("arrival"));
    process.mean_lifetime_s = args.get_double("lifetime");
    process.max_concurrent = std::min<std::size_t>(
        get_count(args, "max-concurrent", 1), models::kNumModels);
    util::Rng rng(seed);
    scenario = workload::sample_scenario(process, args.get_double("horizon"),
                                         rng);
    if (scenario.empty())
      throw std::invalid_argument(
          "arrival process produced an empty scenario; raise the rate or "
          "the --horizon");
  } else {
    workload::ScenarioConfig sc;
    sc.events = get_count(args, "events", 1);
    sc.max_concurrent = get_count(args, "max-concurrent", 1);
    sc.min_concurrent = get_count(args, "min-concurrent", 1);
    sc.depart_bias = args.get_double("depart-bias");
    sc.mean_interarrival_s = args.get_double("interarrival");
    util::Rng rng(seed);
    scenario = workload::random_scenario(rng, sc);
  }
  // --- Default SLO: fill in arrivals that do not already carry one, so a
  // plain trace can be replayed under a uniform latency target.
  const double default_slo_ms = args.get_double("slo");
  if (default_slo_ms < 0.0)
    throw std::invalid_argument("--slo must be >= 0 (milliseconds)");
  if (default_slo_ms > 0.0) {
    std::vector<workload::ScenarioEvent> events = scenario.events();
    for (workload::ScenarioEvent& e : events) {
      if (e.kind == workload::ScenarioEventKind::kArrive && e.slo_ms <= 0.0)
        e.slo_ms = default_slo_ms;
    }
    scenario = workload::Scenario(std::move(events));
  }

  const std::size_t n_boards = get_count(args, "boards", 1);

  // --- Fault weave: draw a board-fault process over the scenario's span and
  // merge its fail/throttle/recover events in (workload/faults.hpp). The
  // weave happens before --save-scenario so the saved trace replays the
  // identical faults.
  if (args.has("faults")) {
    const workload::FaultProcess faults =
        workload::parse_fault_spec(args.get("faults"));
    scenario = workload::with_faults(scenario, faults, n_boards, seed);
    if (!as_json)
      std::printf("fault weave: %s -> %s\n",
                  workload::describe(faults).c_str(),
                  scenario.describe().c_str());
  }
  if (scenario.fault_board_span() > n_boards)
    throw std::invalid_argument(
        "scenario fault events target board " +
        std::to_string(scenario.fault_board_span() - 1) +
        " but the fleet has only " + std::to_string(n_boards) +
        " board(s); raise --boards");

  if (args.has("save-scenario")) {
    workload::save_scenario_file(scenario, args.get("save-scenario"));
    if (!as_json)
      std::printf("wrote scenario trace to %s\n",
                  args.get("save-scenario").c_str());
  }

  // --- Substrate + design time, identical to the one-shot mode.
  const device::DeviceSpec device = build_device(args);
  const models::ModelZoo zoo;
  const device::CostModel cost(device);
  const core::EmbeddingTensor embedding(zoo, cost);

  std::shared_ptr<const core::ThroughputEstimator> estimator;
  if (needs_estimator(opts.kind)) {
    estimator = prepare_estimator(args, opts, zoo, embedding,
                                  sim::DesSimulator(device), as_json);
  }

  // --- The fleet: one setup for every board count, offline or live.
  const double migration_cost = args.get_double("migration-cost");
  if (migration_cost < 0.0)
    throw std::invalid_argument("--migration-cost must be >= 0");
  core::ClusterConfig cc;
  cc.serving.warm_start = warm;
  cc.serving.migration.enabled = migration_cost > 0.0;
  cc.serving.migration.scale = migration_cost > 0.0 ? migration_cost : 1.0;
  cc.migrate = !args.get_flag("no-migrate");
  cc.rebalance_on_recovery = args.get_flag("rebalance");
  cc.cross_board_gbps = args.get_double("cross-gbps");
  if (!(cc.cross_board_gbps > 0.0))
    throw std::invalid_argument("--cross-gbps must be > 0");
  const core::Cluster cluster(
      zoo, core::make_heterogeneous_fleet(n_boards, device), cc);
  const auto policy = core::make_placement_policy(args.get("placement"));

  // --- Decision-deadline guard: wrap every board's scheduler in a
  // FallbackScheduler (wall-clock deadline, retry with backoff, Greedy
  // fallback). Absent flag = no wrapper, bit-identical to before.
  const bool deadline_guard = args.has("decision-deadline-ms");
  const double deadline_ms =
      deadline_guard ? args.get_double("decision-deadline-ms") : 0.0;
  if (deadline_guard && deadline_ms < 0.0)
    throw std::invalid_argument("--decision-deadline-ms must be >= 0");
  // Model-driven schedulers reuse the profile's embedding/estimator on every
  // board (the DES measurement stays per-board exact either way); analytic
  // schedulers are built against each board's own spec.
  const core::SchedulerFactory factory =
      [&](std::size_t i) -> std::unique_ptr<core::IScheduler> {
    const device::DeviceSpec& dev = cluster.boards()[i].device;
    auto inner = make_scheduler(opts, zoo, dev, embedding, estimator);
    if (!deadline_guard) return inner;
    sched::FallbackConfig fc;
    fc.deadline_ms = deadline_ms;
    return sched::make_greedy_fallback(std::move(inner), zoo, dev, fc);
  };

  // --- Daemon mode: hand the fleet to the live serving loop. Its scenario
  // is whatever its clients send, recorded live and saved via `save-trace`.
  if (args.has("listen")) {
    const std::int64_t port_raw = args.get_int("listen");
    if (port_raw < 0 || port_raw > 65535)
      throw std::invalid_argument("--listen must be a port in 0..65535");
    daemon::DaemonConfig dc;
    dc.port = static_cast<std::uint16_t>(port_raw);
    dc.time_scale = args.get_double("time-scale");
    dc.background_slice_ms = args.get_double("background-slice-ms");
    return daemon::run_daemon(zoo, cluster, factory, *policy, dc);
  }

  const core::ClusterReport rep = cluster.run(factory, scenario, *policy);
  if (as_json) {
    util::Json out = core::to_json(rep);
    out.set("scenario", util::Json::string(scenario.describe()));
    out.set("scheduler", util::Json::string(opts.kind));
    out.set("placement", util::Json::string(policy->name()));
    out.set("warm_start", util::Json::boolean(warm));
    std::printf("%s\n", out.dump(2).c_str());
    return 0;
  }

  std::printf("\nscenario: %s | scheduler: %s | placement: %s | "
              "%zu boards | warm-started rescheduling: %s\n",
              scenario.describe().c_str(), opts.kind.c_str(),
              policy->name().c_str(), n_boards, warm ? "on" : "off");
  for (std::size_t i = 0; i < rep.boards.size(); ++i) {
    std::printf("\nboard %s:\n", rep.board_names[i].c_str());
    print_board_report(rep.boards[i], cc.serving.migration.enabled);
  }
  // The same formatter renders the daemon's `status` replies, so offline
  // replays and live sessions are textually comparable line-for-line.
  std::printf("\n");
  std::fputs(core::format_cluster_report(rep).c_str(), stdout);
  return 0;
}

/// The `client` subcommand: one command to a running daemon, reply to
/// stdout. `omniboost_cli client <host:port> <command...>` — the command
/// words are joined with spaces and sent as one protocol line; body lines
/// print to stdout and the exit code mirrors the `ok`/`err` terminator.
int run_client(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: omniboost_cli client <host:port> <command...>\n"
                 "e.g.   omniboost_cli client localhost:7070 arrive "
                 "MobileNet slo 100\n");
    return 2;
  }
  const std::string target = argv[1];
  const std::size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == target.size())
    throw std::invalid_argument("client: target must be <host>:<port>, got '" +
                                target + "'");
  const std::string host = target.substr(0, colon);
  const int port = std::stoi(target.substr(colon + 1));
  if (port < 1 || port > 65535)
    throw std::invalid_argument("client: port must be in 1..65535");

  std::string command;
  for (int i = 2; i < argc; ++i) {
    if (i > 2) command += ' ';
    command += argv[i];
  }
  util::TcpStream stream =
      util::tcp_connect(host, static_cast<std::uint16_t>(port));
  stream.send_line(command);
  std::string line;
  while (stream.recv_line(&line) == util::TcpStream::RecvStatus::kLine) {
    if (line == "ok") return 0;
    if (line == "err" || line.rfind("err ", 0) == 0) {
      std::fprintf(stderr, "%s\n", line.c_str());
      return 1;
    }
    std::printf("%s\n", line.c_str());
  }
  std::fprintf(stderr, "error: daemon closed the connection mid-reply\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc > 1 && std::string(argv[1]) == "serve")
      return run_serve(argc - 1, argv + 1);
    if (argc > 1 && std::string(argv[1]) == "client")
      return run_client(argc - 1, argv + 1);
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n(use --help for usage)\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  }
}

/// \file bench_e2e.cpp
/// End-to-end benchmark: five workloads from design time to the live
/// daemon, each measured untraced for its end-to-end metrics, with a traced
/// mode that breaks the same work down by layer.
///
///   bench_e2e --prepare           train the estimator once (untimed)
///   bench_e2e --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
///             [--trace-file <path>] [--cli <path>] [--workdir <dir>]
///   bench_e2e --smoke             all five, tiny sizes, self-check
///
/// Workloads (see README.md for why each was chosen):
///   design          dataset generation, then estimator training epochs
///   cold_mix        one-shot OmniBoost decisions on distinct 3-5 DNN mixes
///   warm_churn      1-board ClusterSession replaying random churn, no SLOs
///   fleet_slo       3-board fleet, Poisson arrivals with SLOs, board faults
///   daemon_session  `omniboost_cli serve --listen` over one connection
///
/// An untraced run is a sequence of rounds. Each round times a few set-ups,
/// then runs its operations on a fresh set-up whose inputs come from
/// fork_stream(seed, round). Spreading the set-ups and the inputs over the
/// run keeps one slow moment of a shared host, or one unusual draw, from
/// deciding a run's medians.
///
/// Every layer is timed from outside, through the decorators in
/// e2e/wrappers.hpp; nothing under src/ is instrumented. The last line of
/// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"},
/// with the end-to-end metrics (untraced) or the per-layer metrics
/// (--trace 1) that BENCHMARK.json declares. The line before it,
/// `e2e-metrics {...}`, carries every metric the run measured.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/cluster.hpp"
#include "core/dataset.hpp"
#include "core/omniboost.hpp"
#include "e2e/daemon_client.hpp"
#include "e2e/probes.hpp"
#include "e2e/stats.hpp"
#include "e2e/trace.hpp"
#include "e2e/wrappers.hpp"
#include "nn/loss.hpp"
#include "sched/baseline.hpp"
#include "sched/greedy.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/net.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/arrival.hpp"
#include "workload/faults.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

#ifndef OMNIBOOST_E2E_CLI
#define OMNIBOOST_E2E_CLI "omniboost_cli"
#endif

using namespace omniboost;
using e2e::Clock;
using e2e::CpuRotation;
using e2e::RunResult;
using e2e::seconds_since;
using e2e::Tracer;

namespace {

using Pairs = std::vector<std::pair<workload::Workload, sim::Mapping>>;

const std::vector<std::string> kWorkloads = {
    "design", "cold_mix", "warm_churn", "fleet_slo", "daemon_session"};

/// The metrics BENCHMARK.json declares, in its order.
const std::vector<std::string> kEndToEnd = {
    "setup_s", "op_p50_ms", "op_p90_ms", "ops_per_s", "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "nn.conv2d.forward_us",           "nn.batchnorm2d.forward_us",
    "nn.gelu.forward_us",             "nn.maxpool2d.forward_us",
    "nn.residual.self_us",            "nn.head.forward_us",
    "nn.conv2d.backward_us",          "nn.batchnorm2d.backward_us",
    "nn.gelu.backward_us",            "core.estimator.predict_us",
    "core.embedding.masked_input_us", "core.omniboost.schedule_ms",
    "core.mcts.tree_self_ms",         "core.mcts.evaluator_ms",
    "core.mcts.cache_hit_ratio",      "sim.des.simulate_us",
    "sim.des.simulate_traced_us"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string trace_file;
  std::string estimator;
  std::string cli = OMNIBOOST_E2E_CLI;
  std::string workdir = ".";
  bool smoke = false;
};

/// setup_s is the median of this many set-ups per untraced run.
constexpr std::size_t kSetupSamples = 30;

/// Work per run. Round sizes are fixed; the number of rounds scales with
/// --seconds, one round per `round_seconds` of the reference host (a
/// 4-vCPU Xeon VM, Release build). Counts, not a deadline, end a run, so
/// one seed always runs the same inputs and yields the same quality
/// metrics.
struct Sizes {
  std::size_t rounds = 2;
  std::size_t setups_per_round = 1;
  std::size_t dataset_samples = 160;  ///< design: dataset per round
  std::size_t epochs = 15;            ///< design: ~0.18 s each
  std::size_t decisions = 6;          ///< cold_mix: ~0.25 s each
  /// Replays apply their first events untimed, so the timed events see a
  /// populated, warmed-up board rather than a ramp from empty.
  std::size_t replay_warmup = 6;
  std::size_t churn_events = 50;  ///< warm_churn: timed, ~85 ms each
  std::size_t fleet_events = 40;  ///< fleet_slo: timed arrive/depart events
  /// daemon: pipelined commands per round. A burst lasts about 0.6 s, long
  /// enough to span several of the host's fast and slow spells.
  std::size_t burst = 5000;
  std::size_t interactive = 40;  ///< daemon: closed-loop commands (~44 ms)
  /// Traced daemon session: long enough to show per-command cost growing
  /// with the session's history.
  std::size_t trace_burst = 8000;
  std::size_t trace_interactive = 60;
  /// Mirror-probe mixes for the non-cold workloads. Each is decided twice
  /// (schedule() and the mirror, in alternating order). One pair's time
  /// ratio scatters by about +-5% on the reference host; the median of 24
  /// pairs sits within about 2% of the truth.
  std::size_t mirror_mixes = 24;
  std::size_t probe_pairs = 100;  ///< DES probe (mix, mapping) pairs
};

/// Reference-host seconds of one round, set-ups included.
double round_seconds(const std::string& workload) {
  if (workload == "design") return 3.0;
  if (workload == "cold_mix") return 1.5;
  if (workload == "warm_churn") return 5.0;
  if (workload == "fleet_slo") return 5.0;
  return 3.0;  // daemon_session
}

Sizes sizes_for(const std::string& workload, double seconds, bool smoke) {
  Sizes s;
  if (smoke) {
    s.dataset_samples = 48;
    s.epochs = 2;
    s.decisions = 2;
    s.replay_warmup = 2;
    s.churn_events = 4;
    s.fleet_events = 4;
    s.burst = 60;
    s.interactive = 4;
    s.trace_burst = 120;
    s.trace_interactive = 8;
    s.mirror_mixes = 2;
    s.probe_pairs = 8;
    return s;
  }
  s.rounds = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::lround(seconds / round_seconds(workload))));
  s.setups_per_round = (kSetupSamples + s.rounds - 1) / s.rounds;
  return s;
}

/// Builds \p per_round set-ups, each timed on the next CPU of \p cpus, and
/// returns the last; the times are appended to \p times. \p make must start
/// no threads (they would inherit a one-CPU mask).
template <typename Make>
auto timed_setups(std::size_t per_round, CpuRotation& cpus, Make make,
                  std::vector<double>& times) {
  decltype(make()) last;
  for (std::size_t i = 0; i < std::max<std::size_t>(per_round, 1); ++i) {
    cpus.next();
    const Clock::time_point t0 = Clock::now();
    auto next = make();
    times.push_back(seconds_since(t0));
    last = std::move(next);
  }
  return last;
}

/// The end-to-end metrics of an untraced run.
void add_end_to_end(RunResult& r, const std::vector<double>& setup_s,
                    const std::vector<double>& op_ms, double rss_mb) {
  const std::size_t n = op_ms.size();
  r.metrics.add("setup_s", e2e::nearest_rank(setup_s, 50), "s",
                setup_s.size());
  r.metrics.add("op_p50_ms", e2e::nearest_rank(op_ms, 50), "ms", n);
  r.metrics.add("op_p90_ms", e2e::nearest_rank(op_ms, 90), "ms", n);
  r.metrics.add("ops_per_s", e2e::rate_per_s(op_ms), "1/s", n);
  r.metrics.add("peak_rss_mb", rss_mb, "MB", 1);
}

void add_overhead(RunResult& r, const std::vector<double>& untraced_ms,
                  const std::vector<double>& traced_ms) {
  const double u = e2e::nearest_rank(untraced_ms, 50);
  const double t = e2e::nearest_rank(traced_ms, 50);
  r.metrics.add("trace.overhead_pct", 100.0 * (t / u - 1.0), "%",
                traced_ms.size());
}

double ratio(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

// ---------------------------------------------------------------------------
// Estimator: trained once by --prepare, loaded by every workload.
// ---------------------------------------------------------------------------

/// The default bench campaign (bench::Context::train_estimator's defaults):
/// 1500 samples with the last 300 for validation, 100 epochs, L1 loss,
/// dataset seed 42 on the sequential pipeline.
std::shared_ptr<core::ThroughputEstimator> train_estimator(
    const e2e::Substrate& sub, std::size_t samples, std::size_t epochs) {
  core::DatasetConfig dc;
  dc.samples = samples;
  dc.seed = 42;
  const core::SampleSet data =
      core::generate_dataset(sub.zoo, sub.embedding, sub.board, dc);
  auto est = std::make_shared<core::ThroughputEstimator>(
      sub.embedding.models_dim(), sub.embedding.layers_dim());
  nn::L1Loss l1;
  nn::TrainConfig tc;
  tc.epochs = epochs;
  est->fit(data, samples / 5, l1, tc);
  return est;
}

int prepare(const Options& o) {
  if (o.estimator.empty())
    throw std::invalid_argument(
        "--prepare needs OMNIBOOST_ESTIMATOR_CACHE");
  if (std::ifstream(o.estimator)) {
    std::printf("estimator already cached at %s\n", o.estimator.c_str());
    return 0;
  }
  std::printf("training the default bench campaign into %s ...\n",
              o.estimator.c_str());
  std::fflush(stdout);
  const e2e::Substrate sub;
  const auto est = train_estimator(sub, 1500, 100);
  // Write, then rename: a killed --prepare never leaves a truncated cache.
  const std::string tmp = o.estimator + ".tmp";
  est->save_file(tmp);
  if (std::rename(tmp.c_str(), o.estimator.c_str()) != 0)
    throw std::runtime_error("cannot move " + tmp + " to " + o.estimator);
  std::printf("saved %s\n", o.estimator.c_str());
  return 0;
}

std::shared_ptr<const core::ThroughputEstimator> load_estimator(
    const Options& o) {
  if (o.smoke) {
    // Throwaway campaign: smoke numbers check plumbing, not accuracy.
    static const std::shared_ptr<const core::ThroughputEstimator> tiny = [] {
      const e2e::Substrate sub;
      return train_estimator(sub, 64, 2);
    }();
    return tiny;
  }
  if (o.estimator.empty() || !std::ifstream(o.estimator))
    throw std::runtime_error(
        "setup: no cached estimator at '" + o.estimator +
        "'; run `bench_e2e --prepare` first (training is never timed)");
  return std::make_shared<const core::ThroughputEstimator>(
      core::ThroughputEstimator::load_file(o.estimator));
}

/// The paper's default decision config. Smoke runs cut the search budget so
/// all five workloads check themselves in seconds, under sanitizers too.
core::OmniBoostConfig decision_config(const Options& o) {
  core::OmniBoostConfig config;
  if (o.smoke) config.mcts.budget = 25;
  return config;
}

// ---------------------------------------------------------------------------
// Probes shared by every traced run.
// ---------------------------------------------------------------------------

/// Mixes for the mirror probe: the first \p k distinct mixes of at least two
/// streams among \p pairs.
std::vector<workload::Workload> probe_mixes(const Pairs& pairs, std::size_t k) {
  std::vector<workload::Workload> out;
  std::set<std::string> seen;
  for (const auto& [w, mapping] : pairs) {
    if (out.size() >= k) break;
    if (w.size() >= 2 && seen.insert(w.describe()).second) out.push_back(w);
  }
  return out;
}

/// Runs the three probes of e2e/probes.hpp; returns the mirror's
/// per-decision schedule() latencies.
std::vector<double> run_probes(
    const Options& o, const e2e::Substrate& sub,
    const std::shared_ptr<const core::ThroughputEstimator>& est,
    const std::vector<workload::Workload>& mixes, const Pairs& pairs,
    Tracer& tracer, RunResult& r) {
  const e2e::MirrorOutcome mirror =
      e2e::mirror_decisions(sub, est, decision_config(o), mixes,
                            o.smoke ? 32 : 256, tracer, r);
  e2e::layer_probe(*est, mirror.inputs, tracer, r);
  e2e::des_probe(sub, pairs, tracer, r);
  return mirror.decide_ms;
}

Pairs capped(Pairs pairs, std::size_t cap) {
  if (pairs.size() > cap) pairs.resize(cap);
  return pairs;
}

// ---------------------------------------------------------------------------
// design: dataset generation (setup), then training epochs (ops).
// ---------------------------------------------------------------------------

struct DesignSetup {
  std::unique_ptr<e2e::Substrate> sub;
  core::SampleSet data;
};

/// One worker: the slot-seeded pipeline yields the same bytes for every
/// worker count, and with four its time waited on whichever CPU the host
/// slowed.
core::SampleSet make_dataset(const e2e::Substrate& sub, std::size_t samples,
                             std::uint64_t seed) {
  core::DatasetConfig dc;
  dc.samples = samples;
  dc.seed = seed;
  dc.workers = 1;
  return core::generate_dataset(sub.zoo, sub.embedding, sub.board, dc);
}

std::unique_ptr<DesignSetup> make_design_setup(std::size_t samples,
                                               std::uint64_t seed) {
  auto s = std::make_unique<DesignSetup>();
  s->sub = std::make_unique<e2e::Substrate>();
  s->data = make_dataset(*s->sub, samples, seed);
  return s;
}

struct FitPass {
  std::vector<double> epoch_ms;
  nn::TrainHistory history;
};

/// Trains a fresh estimator for \p epochs on \p data, one epoch per CPU of
/// \p cpus. The trainer runs single-threaded (workers = 1): its validation
/// pass is the only part that fans out, and a fanned-out epoch waits on
/// whichever CPU the host slows.
FitPass fit_pass(const e2e::Substrate& sub, const core::SampleSet& data,
                 std::size_t epochs, CpuRotation& cpus, Tracer* tracer) {
  core::ThroughputEstimator est(sub.embedding.models_dim(),
                                sub.embedding.layers_dim());
  nn::L1Loss l1;
  nn::TrainConfig tc;
  tc.epochs = epochs;
  const e2e::EpochStamper stamper(tc.lr, cpus, tracer);
  tc.lr_schedule = &stamper;
  FitPass out;
  std::optional<Tracer::Scope> span;
  if (tracer != nullptr)
    span.emplace(*tracer, tracer->name("core.estimator.fit"));
  out.history = est.fit(data, data.size() / 5, l1, tc);
  const Clock::time_point end = Clock::now();
  stamper.finish();
  out.epoch_ms = stamper.epoch_ms(end);
  return out;
}

std::size_t count_nonfinite(const nn::TrainHistory& h) {
  std::size_t bad = 0;
  for (const double v : h.train_loss) bad += std::isfinite(v) ? 0 : 1;
  for (const double v : h.val_loss) bad += std::isfinite(v) ? 0 : 1;
  return bad;
}

/// The dataset's (mix, mapping) draws, reproduced slot by slot: slot i of
/// the parallel pipeline draws from Rng(fork_stream(seed, i)).
Pairs dataset_pairs(const e2e::Substrate& sub, std::uint64_t seed,
                    std::size_t n) {
  Pairs out;
  for (std::size_t slot = 0; slot < n; ++slot) {
    util::Rng rng(util::fork_stream(seed, slot));
    const auto size = static_cast<std::size_t>(rng.range(1, 5));
    workload::Workload w = workload::random_mix(rng, size);
    sim::Mapping m = workload::random_mapping(rng, sub.zoo, w, 3);
    out.emplace_back(std::move(w), std::move(m));
  }
  return out;
}

void run_design(const Options& o, const Sizes& sz, Tracer& tracer,
                RunResult& r) {
  if (!o.trace) {
    std::vector<double> setup_s, epoch_ms;
    double val_loss = 0.0;
    CpuRotation cpus;
    for (std::size_t round = 0; round < sz.rounds; ++round) {
      const std::uint64_t seed = util::fork_stream(o.seed, round);
      const auto setup = timed_setups(
          sz.setups_per_round, cpus,
          [&] { return make_design_setup(sz.dataset_samples, seed); },
          setup_s);
      const FitPass pass =
          fit_pass(*setup->sub, setup->data, sz.epochs, cpus, nullptr);
      epoch_ms.insert(epoch_ms.end(), pass.epoch_ms.begin(),
                      pass.epoch_ms.end());
      r.attempted += pass.epoch_ms.size();
      r.failed += count_nonfinite(pass.history);
      val_loss += pass.history.val_loss.back();
    }
    r.check(r.failed == 0, "design: training loss is not finite");
    add_end_to_end(r, setup_s, epoch_ms, e2e::peak_rss_mb());
    r.metrics.add("val_loss", val_loss / static_cast<double>(sz.rounds),
                  "L1", sz.rounds);
    r.add_error_rate();
    return;
  }

  // Traced: one round's set-up, trained untraced and then traced.
  const std::uint64_t seed = util::fork_stream(o.seed, 0);
  const auto setup = make_design_setup(sz.dataset_samples, seed);
  const e2e::Substrate& sub = *setup->sub;
  FitPass untraced, traced;
  e2e::Totals before, after;
  {
    CpuRotation cpus;
    untraced = fit_pass(sub, setup->data, sz.epochs, cpus, nullptr);
    before = tracer.totals();
    {
      tracer.begin_op();
      const Tracer::Scope span(tracer, tracer.name("core.dataset.generate"));
      make_dataset(sub, sz.dataset_samples, seed);
    }
    traced = fit_pass(sub, setup->data, sz.epochs, cpus, &tracer);
    after = tracer.totals();
  }
  r.attempted = untraced.epoch_ms.size() + traced.epoch_ms.size();
  r.failed =
      count_nonfinite(untraced.history) + count_nonfinite(traced.history);
  r.check(r.failed == 0, "design: training loss is not finite");
  r.metrics.add("core.dataset.generate_ms",
                e2e::delta(after, before, "core.dataset.generate").total_us /
                    1000.0,
                "ms", 1);
  r.metrics.add("nn.train.epoch_ms", util::mean(traced.epoch_ms), "ms",
                traced.epoch_ms.size());
  add_overhead(r, untraced.epoch_ms, traced.epoch_ms);

  const Pairs pairs = dataset_pairs(sub, seed, sz.probe_pairs);
  run_probes(o, sub, load_estimator(o), probe_mixes(pairs, sz.mirror_mixes),
             pairs, tracer, r);
}

// ---------------------------------------------------------------------------
// cold_mix: one-shot decisions on distinct mixes (closed loop, one caller).
// ---------------------------------------------------------------------------

struct ColdSetup {
  std::unique_ptr<e2e::Substrate> sub;
  std::shared_ptr<const core::ThroughputEstimator> est;
  std::unique_ptr<core::OmniBoostScheduler> scheduler;
  std::vector<workload::Workload> mixes;
  std::vector<double> gpu_throughput;  ///< DES T of all-on-GPU, per mix
};

/// \p n distinct mixes drawn from \p seed whose sizes cycle 3, 4, 5 (so
/// every seed has the same size profile), kept only when all-on-GPU runs on
/// the board: the paper's normalisation needs a feasible GPU baseline.
std::unique_ptr<ColdSetup> make_cold_setup(const Options& o, std::size_t n,
                                           std::uint64_t seed) {
  auto s = std::make_unique<ColdSetup>();
  s->sub = std::make_unique<e2e::Substrate>();
  s->est = load_estimator(o);
  s->scheduler = std::make_unique<core::OmniBoostScheduler>(
      s->sub->zoo, s->sub->embedding, s->est, decision_config(o));
  sched::AllOnScheduler gpu(s->sub->zoo, device::ComponentId::kGpu, "GPU");
  util::Rng rng(seed);
  std::set<std::string> seen;
  while (s->mixes.size() < n) {
    const workload::Workload w =
        workload::random_mix(rng, 3 + s->mixes.size() % 3);
    if (!seen.insert(w.describe()).second) continue;
    const sim::ThroughputReport rep = s->sub->board.simulate(
        w.resolve(s->sub->zoo), gpu.schedule(w).mapping);
    if (!rep.feasible || !(rep.avg_throughput > 0.0)) continue;
    s->mixes.push_back(w);
    s->gpu_throughput.push_back(rep.avg_throughput);
  }
  return s;
}

/// Decides every mix of \p setup once, each on the next CPU; appends the
/// latencies to \p op_ms and the (mix, mapping) pairs, with their all-on-GPU
/// throughput, to \p pairs and \p gpu.
void cold_decisions(const ColdSetup& setup, CpuRotation& cpus,
                    std::vector<double>& op_ms, Pairs& pairs,
                    std::vector<double>& gpu, RunResult& r) {
  for (std::size_t i = 0; i < setup.mixes.size(); ++i) {
    const workload::Workload& w = setup.mixes[i];
    ++r.attempted;
    cpus.next();
    try {
      const Clock::time_point t0 = Clock::now();
      const core::ScheduleResult d = setup.scheduler->schedule(w);
      op_ms.push_back(1000.0 * seconds_since(t0));
      pairs.emplace_back(w, d.mapping);
      gpu.push_back(setup.gpu_throughput[i]);
    } catch (const std::exception& err) {
      ++r.failed;
      r.check(false, std::string("cold_mix: schedule threw: ") + err.what());
    }
  }
}

void run_cold_mix(const Options& o, const Sizes& sz, Tracer& tracer,
                  RunResult& r) {
  if (!o.trace) {
    std::vector<double> setup_s, op_ms, gpu;
    Pairs pairs;
    std::unique_ptr<ColdSetup> last;
    {
      CpuRotation cpus;
      for (std::size_t round = 0; round < sz.rounds; ++round) {
        const std::uint64_t seed = util::fork_stream(o.seed, round);
        last = timed_setups(
            sz.setups_per_round, cpus,
            [&] { return make_cold_setup(o, sz.decisions, seed); }, setup_s);
        cold_decisions(*last, cpus, op_ms, pairs, gpu, r);
      }
    }
    r.check(!pairs.empty(), "cold_mix: no decision completed");
    if (pairs.empty()) return;
    // Off the timed path: DES-measure each decided mapping against its
    // all-on-GPU baseline (the paper's normalisation), and confirm a
    // decision is reproducible.
    const e2e::Substrate& sub = *last->sub;
    double t_sum = 0.0, gain_sum = 0.0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const double t =
          sub.board.simulate(pairs[i].first.resolve(sub.zoo), pairs[i].second)
              .avg_throughput;
      t_sum += t;
      gain_sum += t / gpu[i];
    }
    const double dn = static_cast<double>(pairs.size());
    r.check(last->scheduler->schedule(pairs.back().first).mapping ==
                pairs.back().second,
            "cold_mix: decision not reproducible");
    add_end_to_end(r, setup_s, op_ms, e2e::peak_rss_mb());
    r.metrics.add("served_throughput_inf_s", t_sum / dn, "inf/s", pairs.size());
    r.metrics.add("throughput_gain_vs_gpu", gain_sum / dn, "x", pairs.size());
    r.add_error_rate();
    return;
  }

  // Traced: half a run's decisions untraced, then the same decisions again,
  // each decorated and mirrored; the mirror must land on the mapping
  // schedule() chose.
  const std::size_t n =
      std::max<std::size_t>(1, sz.rounds * sz.decisions / 2);
  const auto setup = make_cold_setup(o, n, util::fork_stream(o.seed, 0));
  std::vector<double> op_ms, gpu;
  Pairs pairs;
  {
    CpuRotation cpus;
    cold_decisions(*setup, cpus, op_ms, pairs, gpu, r);
  }
  r.check(!pairs.empty(), "cold_mix: no decision completed");
  if (pairs.empty()) return;
  std::vector<workload::Workload> mixes;
  for (const auto& p : pairs) mixes.push_back(p.first);
  const std::vector<double> traced_ms =
      run_probes(o, *setup->sub, setup->est, mixes,
                 capped(pairs, sz.probe_pairs), tracer, r);
  r.attempted += traced_ms.size();
  add_overhead(r, op_ms, traced_ms);
}

// ---------------------------------------------------------------------------
// warm_churn / fleet_slo: offline ClusterSession replays (one apply() = op).
// ---------------------------------------------------------------------------

struct ReplaySetup {
  std::unique_ptr<e2e::Substrate> sub;
  std::shared_ptr<const core::ThroughputEstimator> est;
  std::unique_ptr<core::Cluster> cluster;
  std::unique_ptr<core::IPlacementPolicy> policy;
  workload::Scenario scenario;
  core::OmniBoostConfig config;
};

std::unique_ptr<ReplaySetup> make_churn_setup(const Options& o,
                                              std::size_t events,
                                              std::uint64_t seed) {
  auto s = std::make_unique<ReplaySetup>();
  s->sub = std::make_unique<e2e::Substrate>();
  s->est = load_estimator(o);
  s->config = decision_config(o);
  s->cluster = std::make_unique<core::Cluster>(
      s->sub->zoo,
      std::vector<core::BoardSpec>{{"hikey970", device::make_hikey970()}});
  s->policy = core::make_placement_policy("least-loaded");
  workload::ScenarioConfig sc;
  sc.events = events;
  sc.min_concurrent = 1;
  sc.max_concurrent = 5;
  sc.depart_bias = 0.5;
  util::Rng rng(seed);
  s->scenario = workload::random_scenario(rng, sc);
  return s;
}

/// The first \p events arrive/depart events of a Poisson process (cut from a
/// horizon long enough to hold them, so every seed yields the same count),
/// with board faults woven in over their span.
std::unique_ptr<ReplaySetup> make_fleet_setup(const Options& o,
                                              std::size_t events,
                                              std::uint64_t seed) {
  auto s = std::make_unique<ReplaySetup>();
  s->sub = std::make_unique<e2e::Substrate>();
  s->est = load_estimator(o);
  s->config = decision_config(o);
  core::ClusterConfig cc;
  cc.serving.migration.enabled = true;
  s->cluster = std::make_unique<core::Cluster>(
      s->sub->zoo, core::make_heterogeneous_fleet(3), cc);
  s->policy = core::make_placement_policy("least-loaded");
  workload::ArrivalProcess p;
  p.rate_per_s = 0.6;
  p.mean_lifetime_s = 20.0;
  p.max_concurrent = models::kNumModels;
  p.slo_fraction = 1.0;
  p.slo_min_ms = 200.0;
  p.slo_max_ms = 2000.0;
  util::Rng rng(seed);
  // About one arrive/depart event per second of horizon; 4 s per event
  // leaves a wide margin.
  const workload::Scenario arrivals = workload::sample_scenario(
      p, 4.0 * static_cast<double>(events) + 60.0, rng);
  if (arrivals.size() < events)
    throw std::runtime_error("fleet_slo: arrival process too short");
  const workload::Scenario prefix(std::vector<workload::ScenarioEvent>(
      arrivals.events().begin(),
      arrivals.events().begin() + static_cast<std::ptrdiff_t>(events)));
  workload::FaultProcess faults;
  faults.mtbf_s = 120.0;
  faults.mttr_s = 15.0;
  faults.throttle_fraction = 0.5;
  s->scenario = workload::with_faults(prefix, faults, 3, seed);
  return s;
}

struct ReplayPass {
  std::vector<double> op_ms;
  core::ClusterReport report;
  Pairs pairs;  ///< (board mix, installed mapping) after each timed event
  e2e::DecisionStats stats;  ///< timed decisions only
  e2e::Totals timed_from;    ///< span totals when the timed events began
};

/// Applies the scenario's first \p warmup events untimed, then times the
/// rest, each on the next CPU of \p cpus, on a fresh session. With a tracer,
/// schedulers are decorated (core.omniboost.decide) and each timed apply()
/// is a core.cluster.apply span.
ReplayPass replay_pass(const ReplaySetup& s, std::size_t warmup,
                       CpuRotation& cpus, Tracer* tracer, RunResult& r) {
  ReplayPass out;
  const core::SchedulerFactory factory =
      [&](std::size_t) -> std::unique_ptr<core::IScheduler> {
    auto scheduler = std::make_unique<core::OmniBoostScheduler>(
        s.sub->zoo, s.sub->embedding, s.est, s.config);
    if (tracer == nullptr) return scheduler;
    return std::make_unique<e2e::TimedScheduler>(
        std::move(scheduler), *tracer, "core.omniboost.decide", out.stats);
  };
  core::ClusterSession session(*s.cluster, factory, *s.policy);
  const Tracer::NameId apply_span =
      tracer != nullptr ? tracer->name("core.cluster.apply") : 0;
  const std::vector<workload::ScenarioEvent>& events = s.scenario.events();
  const std::size_t n = events.size();
  for (std::size_t i = 0; i < std::min(warmup, n); ++i)
    session.apply(events[i]);
  out.stats = {};
  if (tracer != nullptr) out.timed_from = tracer->totals();
  for (std::size_t i = warmup; i < n; ++i) {
    ++r.attempted;
    cpus.next();
    try {
      if (tracer != nullptr) tracer->begin_op();
      const Clock::time_point t0 = Clock::now();
      core::ClusterSession::ApplyOutcome outcome;
      {
        std::optional<Tracer::Scope> span;
        if (tracer != nullptr) span.emplace(*tracer, apply_span);
        outcome = session.apply(events[i]);
      }
      out.op_ms.push_back(1000.0 * seconds_since(t0));
      if (outcome.board != core::ClusterSession::kNoBoard) {
        const core::ServingSession& board = session.session(outcome.board);
        if (!board.idle() && board.has_previous())
          out.pairs.emplace_back(workload::Workload{board.present()},
                                 board.previous_mapping());
      }
    } catch (const std::exception& err) {
      ++r.failed;
      r.check(false, std::string("apply threw: ") + err.what());
    }
  }
  out.report = session.finish();
  return out;
}

/// Stream conservation: every offered stream is admitted or rejected, and
/// every admitted one departed, was shed, or is still resident.
void check_conservation(const core::ClusterReport& rep, const char* workload,
                        RunResult& r) {
  r.check(rep.offered_streams == rep.admitted_streams + rep.rejected_streams &&
              rep.admitted_streams == rep.departures + rep.shed_streams +
                                          rep.resident_streams,
          std::string(workload) + ": stream conservation broken");
}

void run_replay(const Options& o, const Sizes& sz, bool fleet, Tracer& tracer,
                RunResult& r) {
  const char* name = fleet ? "fleet_slo" : "warm_churn";
  const std::size_t warmup = sz.replay_warmup;
  const auto make = [&](std::uint64_t seed) {
    return fleet ? make_fleet_setup(o, warmup + sz.fleet_events, seed)
                 : make_churn_setup(o, warmup + sz.churn_events, seed);
  };

  if (!o.trace) {
    std::vector<double> setup_s, op_ms;
    std::size_t offered = 0, rejected = 0, slo_streams = 0, violations = 0;
    double throughput = 0.0;
    CpuRotation cpus;
    for (std::size_t round = 0; round < sz.rounds; ++round) {
      const std::uint64_t seed = util::fork_stream(o.seed, round);
      const auto setup = timed_setups(
          sz.setups_per_round, cpus, [&] { return make(seed); }, setup_s);
      const ReplayPass pass = replay_pass(*setup, warmup, cpus, nullptr, r);
      const core::ClusterReport& rep = pass.report;
      check_conservation(rep, name, r);
      op_ms.insert(op_ms.end(), pass.op_ms.begin(), pass.op_ms.end());
      offered += rep.offered_streams;
      rejected += rep.rejected_streams;
      slo_streams += rep.total_slo_streams;
      violations += rep.total_slo_violations;
      throughput += rep.fleet_throughput;
    }
    add_end_to_end(r, setup_s, op_ms, e2e::peak_rss_mb());
    r.metrics.add("served_throughput_inf_s",
                  throughput / static_cast<double>(sz.rounds), "inf/s",
                  sz.rounds);
    if (fleet)
      r.metrics.add("slo_violation_rate", ratio(violations, slo_streams),
                    "fraction", slo_streams);
    r.metrics.add("rejection_rate", ratio(rejected, offered), "fraction",
                  offered);
    r.add_error_rate();
    return;
  }

  // Traced: one round's scenario, replayed untraced and then traced, each
  // on a fresh session.
  const auto setup = make(util::fork_stream(o.seed, 0));
  ReplayPass untraced, traced;
  {
    CpuRotation cpus;
    untraced = replay_pass(*setup, warmup, cpus, nullptr, r);
    traced = replay_pass(*setup, warmup, cpus, &tracer, r);
  }
  const e2e::Totals& before = traced.timed_from;
  const e2e::Totals after = tracer.totals();
  check_conservation(traced.report, name, r);
  add_overhead(r, untraced.op_ms, traced.op_ms);

  const e2e::DecisionStats& st = traced.stats;
  const double decisions =
      static_cast<double>(std::max<std::size_t>(st.decisions, 1));
  const double applies = static_cast<double>(traced.op_ms.size());
  e2e::Metrics& m = r.metrics;
  m.add("core.omniboost.decide_ms",
        e2e::delta(after, before, "core.omniboost.decide").total_us / 1000.0 /
            decisions,
        "ms", st.decisions);
  m.add("core.omniboost.evaluations_per_decision",
        static_cast<double>(st.evaluations) / decisions, "count", st.decisions);
  m.add("core.omniboost.carried_memo_hit_ratio",
        ratio(st.warm_cache_hits, st.warm_cache_hits + st.warm_evaluations),
        "ratio", st.warm);
  m.add("core.omniboost.des_replays_per_decision",
        static_cast<double>(st.des_replays) / decisions, "count",
        st.decisions);
  m.add("core.omniboost.replay_memo_hit_ratio",
        ratio(st.replay_hits, st.replay_hits + st.des_replays), "ratio",
        st.decisions);
  m.add("core.cluster.non_decide_ms",
        e2e::delta(after, before, "core.cluster.apply").self_us / 1000.0 /
            applies,
        "ms", traced.op_ms.size());
  m.add("core.cluster.decisions_per_event",
        static_cast<double>(st.decisions) / applies, "count",
        traced.op_ms.size());

  run_probes(o, *setup->sub, setup->est,
             probe_mixes(traced.pairs, sz.mirror_mixes),
             capped(traced.pairs, sz.probe_pairs), tracer, r);
  if (const e2e::Metric* des = m.find("sim.des.simulate_traced_us")) {
    // Derived, not measured: the replays a decision ran times what one
    // traced replay costs standalone.
    m.add("sim.des.replay_ms_per_decision.derived",
          static_cast<double>(st.des_replays) / decisions * des->value / 1000.0,
          "ms", st.decisions);
  }
}

// ---------------------------------------------------------------------------
// daemon_session: the live daemon over one loopback connection.
// ---------------------------------------------------------------------------

const std::vector<std::string> kDaemonArgs = {
    "serve",        "--listen", "0",    "--boards",
    "3",            "--scheduler", "greedy",
    "--time-scale", "1000",     "--background-slice-ms", "0"};

std::string conservation_line(const std::vector<std::string>& lines) {
  for (const std::string& l : lines)
    if (l.rfind("conservation:", 0) == 0) return l;
  return "";
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

/// `key=<integer>` out of a conservation line (0 when absent).
double field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(key + "=");
  return at == std::string::npos
             ? 0.0
             : std::strtod(line.c_str() + at + key.size() + 1, nullptr);
}

struct DaemonPass {
  e2e::BurstResult burst;
  e2e::InteractiveResult interactive;
  std::string live_conservation;
  double rss_mb = 0.0;
  workload::Scenario saved;
};

/// One session on \p daemon: the pipelined burst, the closed-loop phase,
/// then (untimed) `status`, `save-trace` and `shutdown`.
DaemonPass daemon_pass(const Options& o, e2e::DaemonProcess& daemon,
                       const std::vector<std::string>& burst,
                       const std::vector<std::string>& interactive,
                       Tracer* tracer, RunResult& r) {
  DaemonPass out;
  util::TcpStream s = util::tcp_connect("127.0.0.1", daemon.port());
  CpuRotation daemon_cpus(daemon.pid());
  {
    std::optional<Tracer::Scope> span;
    if (tracer != nullptr) {
      tracer->begin_op();
      span.emplace(*tracer, tracer->name("daemon.burst"));
    }
    out.burst =
        e2e::run_burst(s, burst, daemon_cpus, [&daemon] { daemon.kill(); });
  }
  r.attempted += burst.size();
  r.failed += out.burst.errors + (burst.size() - out.burst.reply_ms.size());
  r.check(out.burst.complete, "daemon_session: burst replies incomplete");
  if (!out.burst.complete) return out;

  out.interactive = e2e::run_interactive(s, interactive, daemon_cpus, tracer);
  r.attempted += interactive.size();
  r.failed += out.interactive.errors +
              (interactive.size() - out.interactive.command_ms.size());
  r.check(out.interactive.complete,
          "daemon_session: interactive replies incomplete");

  std::vector<std::string> body;
  s.send_line("status");
  r.check(e2e::read_reply(s, &body) == 1, "daemon_session: status failed");
  out.live_conservation = conservation_line(body);
  const std::string path =
      o.workdir + "/daemon-" + std::to_string(o.seed) + ".trace";
  s.send_line("save-trace " + path);
  const bool saved = e2e::read_reply(s, nullptr) == 1;
  r.check(saved, "daemon_session: save-trace failed");
  out.rss_mb = daemon.peak_rss_mb();
  s.close();
  r.check(daemon.shutdown(),
          "daemon_session: daemon did not shut down cleanly");
  if (saved) {
    out.saved = workload::load_scenario_file(path);
    std::remove(path.c_str());
  }
  return out;
}

/// Builds the daemon's fleet exactly as `serve --listen --boards 3
/// --scheduler greedy` does, for the in-process replays.
struct DaemonFleet {
  explicit DaemonFleet(const models::ModelZoo& zoo)
      : cluster(zoo, core::make_heterogeneous_fleet(3)),
        policy(core::make_placement_policy("least-loaded")) {}
  core::Cluster cluster;
  std::unique_ptr<core::IPlacementPolicy> policy;
};

/// The live accounting must equal an offline Cluster::run replay of the
/// trace the daemon saved.
void check_live_conservation(const e2e::Substrate& sub, const DaemonPass& pass,
                             RunResult& r) {
  DaemonFleet fleet(sub.zoo);
  const core::SchedulerFactory greedy =
      [&](std::size_t i) -> std::unique_ptr<core::IScheduler> {
    return std::make_unique<sched::GreedyScheduler>(
        sub.zoo, fleet.cluster.boards()[i].device);
  };
  const std::string offline = conservation_line(
      split_lines(core::format_cluster_report(
          fleet.cluster.run(greedy, pass.saved, *fleet.policy))));
  r.check(!pass.live_conservation.empty() && pass.live_conservation == offline,
          "daemon_session: live conservation '" + pass.live_conservation +
              "' != offline replay '" + offline + "'");
}

/// Median ms of what the daemon does to validate one command at trace
/// length \p k: copy the recorded prefix, append the candidate (the event
/// at position k of the saved trace, legal by construction), and construct
/// a Scenario from it.
double validate_ms(const std::vector<workload::ScenarioEvent>& events,
                   std::size_t k) {
  const std::vector<workload::ScenarioEvent> recorded(
      events.begin(), events.begin() + static_cast<std::ptrdiff_t>(k));
  std::vector<double> ms;
  for (int rep = 0; rep < 15; ++rep) {
    const Clock::time_point t0 = Clock::now();
    std::vector<workload::ScenarioEvent> candidate = recorded;
    candidate.push_back(events[k]);
    const workload::Scenario validated(std::move(candidate));
    ms.push_back(1000.0 * seconds_since(t0));
  }
  return e2e::nearest_rank(ms, 50);
}

/// The daemon-specific breakdown, from client timings plus an in-process
/// replay of the saved trace with a decorated Greedy scheduler.
void daemon_breakdown(const e2e::Substrate& sub, const DaemonPass& pass,
                      Tracer& tracer, RunResult& r, Pairs* pairs) {
  const std::vector<workload::ScenarioEvent>& events = pass.saved.events();
  DaemonFleet fleet(sub.zoo);
  e2e::DecisionStats stats;
  const core::SchedulerFactory factory =
      [&](std::size_t i) -> std::unique_ptr<core::IScheduler> {
    return std::make_unique<e2e::TimedScheduler>(
        std::make_unique<sched::GreedyScheduler>(
            sub.zoo, fleet.cluster.boards()[i].device),
        tracer, "sched.greedy.decide", stats);
  };
  const Tracer::NameId apply_span = tracer.name("daemon.replay.apply");
  const e2e::Totals before = tracer.totals();
  {
    core::ClusterSession session(fleet.cluster, factory, *fleet.policy);
    for (const workload::ScenarioEvent& e : events) {
      tracer.begin_op();
      core::ClusterSession::ApplyOutcome outcome;
      {
        const Tracer::Scope span(tracer, apply_span);
        outcome = session.apply(e);
      }
      if (pairs != nullptr && outcome.board != core::ClusterSession::kNoBoard) {
        const core::ServingSession& board = session.session(outcome.board);
        if (!board.idle() && board.has_previous())
          pairs->emplace_back(workload::Workload{board.present()},
                              board.previous_mapping());
      }
    }
  }
  const e2e::Totals after = tracer.totals();
  const double n = static_cast<double>(std::max<std::size_t>(events.size(), 1));
  const double apply_us =
      e2e::delta(after, before, "daemon.replay.apply").total_us / n;
  e2e::Metrics& m = r.metrics;
  m.add("daemon.apply_us", apply_us, "us", events.size());
  m.add("sched.greedy.decide_us",
        e2e::delta(after, before, "sched.greedy.decide").total_us /
            static_cast<double>(std::max<std::size_t>(stats.decisions, 1)),
        "us", stats.decisions);
  m.add("daemon.session_events", static_cast<double>(events.size()), "count",
        1);
  if (events.size() < 2) return;
  const std::size_t k1 = std::min<std::size_t>(1000, events.size() - 1);
  const double at_end = validate_ms(events, events.size() - 1);
  m.add("workload.scenario.validate_ms_at_1k", validate_ms(events, k1), "ms",
        15);
  m.add("workload.scenario.validate_ms_at_end", at_end, "ms", 15);

  const std::vector<double>& cmd = pass.interactive.command_ms;
  const double p50 = e2e::nearest_rank(cmd, 50);
  m.add("daemon.wire_ms", p50 - (apply_us / 1000.0 + at_end), "ms",
        cmd.size());
  m.add("daemon.status_ms", e2e::nearest_rank(pass.interactive.status_ms, 50),
        "ms", pass.interactive.status_ms.size());
  const std::vector<double>& t = pass.burst.reply_ms;
  const std::size_t w = std::min<std::size_t>(1000, t.size() / 4);
  if (w >= 2) {
    const double first = (t[w - 1] - t[0]) / static_cast<double>(w - 1);
    const double last =
        (t.back() - t[t.size() - w]) / static_cast<double>(w - 1);
    m.add("daemon.burst_gap_first_ms", first, "ms", w);
    m.add("daemon.burst_gap_last_ms", last, "ms", w);
    m.add("daemon.burst_gap_growth", last / first, "x", w);
  }
}

struct DaemonInputs {
  std::vector<std::string> burst;
  std::vector<std::string> interactive;
};

DaemonInputs daemon_inputs(std::uint64_t seed, std::size_t burst,
                           std::size_t interactive) {
  e2e::ClauseGenerator gen(seed, 6);
  DaemonInputs in;
  in.burst = e2e::make_commands(gen, burst, 50);
  in.interactive = e2e::make_commands(gen, interactive, 25);
  return in;
}

void run_daemon(const Options& o, const Sizes& sz, Tracer& tracer,
                RunResult& r) {
  // The benchmark's own thread is never pinned here: a spawned daemon
  // inherits its CPU mask.
  const e2e::Substrate sub;
  const auto spawn = [&o] {
    return std::make_unique<e2e::DaemonProcess>(o.cli, kDaemonArgs);
  };

  if (!o.trace) {
    // Each round: set-ups (spawn -> `listening on`; all but the last daemon
    // retire at once), then one session of a burst and closed-loop
    // commands on the last daemon. Latencies pool over the rounds;
    // throughput is burst commands over burst time, all rounds together.
    std::vector<double> setup_s, command_ms, rss;
    double burst_ms = 0.0;
    std::size_t burst_replies = 0, offered = 0, rejected = 0;
    for (std::size_t round = 0; round < sz.rounds; ++round) {
      const DaemonInputs in = daemon_inputs(util::fork_stream(o.seed, round),
                                            sz.burst, sz.interactive);
      std::unique_ptr<e2e::DaemonProcess> daemon;
      for (std::size_t i = 0; i < std::max<std::size_t>(sz.setups_per_round, 1);
           ++i) {
        if (daemon != nullptr)
          r.check(daemon->shutdown(),
                  "daemon_session: setup daemon did not shut down");
        daemon = spawn();
        setup_s.push_back(daemon->startup_s());
      }
      const DaemonPass pass =
          daemon_pass(o, *daemon, in.burst, in.interactive, nullptr, r);
      if (!pass.burst.complete || !pass.interactive.complete) return;
      check_live_conservation(sub, pass, r);
      command_ms.insert(command_ms.end(), pass.interactive.command_ms.begin(),
                        pass.interactive.command_ms.end());
      burst_ms += pass.burst.reply_ms.back();
      burst_replies += pass.burst.reply_ms.size();
      rss.push_back(pass.rss_mb);
      offered += static_cast<std::size_t>(
          field(pass.live_conservation, "offered"));
      rejected += static_cast<std::size_t>(
          field(pass.live_conservation, "rejected"));
    }
    add_end_to_end(r, setup_s, command_ms, e2e::nearest_rank(rss, 50));
    r.metrics.add("ops_per_s",
                  1e3 * static_cast<double>(burst_replies) / burst_ms, "1/s",
                  burst_replies);
    r.metrics.add("rejection_rate", ratio(rejected, offered), "fraction",
                  offered);
    r.add_error_rate();
    return;
  }

  const DaemonInputs in = daemon_inputs(util::fork_stream(o.seed, 0),
                                        sz.trace_burst, sz.trace_interactive);
  std::unique_ptr<e2e::DaemonProcess> first = spawn();
  const DaemonPass untraced =
      daemon_pass(o, *first, in.burst, in.interactive, nullptr, r);
  std::unique_ptr<e2e::DaemonProcess> second = spawn();
  const DaemonPass traced =
      daemon_pass(o, *second, in.burst, in.interactive, &tracer, r);
  if (!traced.burst.complete || !traced.interactive.complete ||
      !untraced.interactive.complete)
    return;
  check_live_conservation(sub, traced, r);
  add_overhead(r, untraced.interactive.command_ms,
               traced.interactive.command_ms);
  Pairs pairs;
  daemon_breakdown(sub, traced, tracer, r, &pairs);
  run_probes(o, sub, load_estimator(o), probe_mixes(pairs, sz.mirror_mixes),
             capped(pairs, sz.probe_pairs), tracer, r);
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

util::Json metric_json(const e2e::Metric& m, bool with_n) {
  util::Json v = util::Json::object();
  v.set("value", util::Json::number(m.value));
  v.set("unit", util::Json::string(m.unit));
  if (with_n) v.set("n", util::Json::number(m.n));
  return v;
}

/// Prints the metric table, the full `e2e-metrics` line and, last, the
/// result line BENCHMARK.json describes. Returns true when every check
/// passed and no operation failed.
bool emit(const Options& o, RunResult& r) {
  const std::vector<std::string>& declared = o.trace ? kPerLayer : kEndToEnd;
  for (const std::string& name : declared) {
    const e2e::Metric* m = r.metrics.find(name);
    r.check(m != nullptr && std::isfinite(m->value),
            "metric " + name + " missing or not finite");
  }

  util::Table table({"metric", "value", "unit", "n"});
  for (const e2e::Metric& m : r.metrics.items()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.6g", m.value);
    table.add_row({m.name, value, m.unit, std::to_string(m.n)});
  }
  std::printf("=== bench_e2e: %s | seed %llu | %s ===\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed),
              o.trace ? "traced" : "untraced");
  bench::report("e2e_" + o.workload + (o.trace ? "_trace" : ""), table);
  for (const std::string& f : r.failures)
    std::printf("check FAILED: %s\n", f.c_str());
  for (const std::string& w : r.warnings)
    std::printf("warning: %s\n", w.c_str());

  util::Json all = util::Json::object();
  for (const e2e::Metric& m : r.metrics.items())
    if (std::isfinite(m.value)) all.set(m.name, metric_json(m, true));
  const auto strings = [](const std::vector<std::string>& v) {
    util::Json a = util::Json::array();
    for (const std::string& s : v) a.push_back(util::Json::string(s));
    return a;
  };
  util::Json extra = util::Json::object();
  extra.set("workload", util::Json::string(o.workload));
  extra.set("seed", util::Json::number(static_cast<double>(o.seed)));
  extra.set("seconds", util::Json::number(o.seconds));
  extra.set("trace", util::Json::number(o.trace ? 1.0 : 0.0));
  extra.set("metrics", std::move(all));
  extra.set("failures", strings(r.failures));
  extra.set("warnings", strings(r.warnings));
  std::printf("e2e-metrics %s\n", extra.dump().c_str());

  // A failed check counts as a failed operation; the count is capped at the
  // operations attempted so the two stay comparable.
  const bool correct = r.failures.empty() && r.failed == 0;
  const std::size_t attempted = std::max<std::size_t>(r.attempted, 1);
  util::Json result = util::Json::object();
  result.set("correct", util::Json::boolean(correct));
  result.set("attempted", util::Json::number(attempted));
  result.set("failed", util::Json::number(
                           std::min(attempted, r.failed + r.failures.size())));
  util::Json metrics = util::Json::object();
  for (const std::string& name : declared) {
    const e2e::Metric* m = r.metrics.find(name);
    if (m != nullptr && std::isfinite(m->value))
      metrics.set(name, metric_json(*m, false));
  }
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return correct;
}

bool run_workload(const Options& o) {
  const Sizes sz = sizes_for(o.workload, o.seconds, o.smoke);
  Tracer tracer;
  RunResult r;
  try {
    if (o.workload == "design") {
      run_design(o, sz, tracer, r);
    } else if (o.workload == "cold_mix") {
      run_cold_mix(o, sz, tracer, r);
    } else if (o.workload == "warm_churn") {
      run_replay(o, sz, false, tracer, r);
    } else if (o.workload == "fleet_slo") {
      run_replay(o, sz, true, tracer, r);
    } else if (o.workload == "daemon_session") {
      run_daemon(o, sz, tracer, r);
    } else {
      throw std::invalid_argument("unknown workload '" + o.workload + "'");
    }
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const std::exception& err) {
    ++r.failed;
    r.check(false, std::string("run aborted: ") + err.what());
  }
  if (o.trace && !o.trace_file.empty()) {
    util::Json header = util::Json::object();
    header.set("workload", util::Json::string(o.workload));
    header.set("seed", util::Json::number(static_cast<double>(o.seed)));
    r.check(tracer.write(o.trace_file, std::move(header)),
            "cannot write trace file " + o.trace_file);
  }
  return emit(o, r);
}

/// Every workload at tiny sizes, untraced and traced, against a throwaway
/// estimator: proves the benchmark builds, runs and checks itself in
/// seconds.
bool run_smoke(Options o) {
  bool ok = true;
  for (const std::string& w : kWorkloads) {
    for (const bool trace : {false, true}) {
      o.workload = w;
      o.trace = trace;
      ok = run_workload(o) && ok;
    }
  }
  std::printf("bench_e2e smoke: %s\n", ok ? "OK" : "FAILED");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_e2e",
                       "end-to-end benchmark: five workloads from design time "
                       "to the live daemon");
  args.option("workload",
              "design|cold_mix|warm_churn|fleet_slo|daemon_session")
      .option("seed", "workload input seed", "1")
      .option("seconds", "approximate length of the measured phase", "15")
      .option("trace", "1 = traced run reporting per-layer metrics", "0")
      .option("trace-file", "traced runs: write every span here as JSON")
      .option("cli", "omniboost_cli binary for daemon_session",
              OMNIBOOST_E2E_CLI)
      .option("workdir", "working directory for the daemon's saved trace", ".")
      .flag("prepare", "train the default bench campaign into "
                       "$OMNIBOOST_ESTIMATOR_CACHE (untimed) and exit")
      .flag("smoke", "all five workloads at tiny sizes (also the default "
                     "when OMNIBOOST_BENCH_SMOKE is set and no workload is "
                     "given)");
  try {
    if (!args.parse(argc, argv)) return 0;
    Options o;
    const char* cache = std::getenv("OMNIBOOST_ESTIMATOR_CACHE");
    o.estimator = cache != nullptr ? cache : "";
    o.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    o.seconds = args.get_double("seconds");
    if (!(o.seconds > 0.0) || o.seconds > 600.0)
      throw std::invalid_argument("--seconds must be in (0, 600]");
    o.trace = args.get_int("trace") != 0;
    if (args.has("trace-file")) o.trace_file = args.get("trace-file");
    o.cli = args.get("cli");
    o.workdir = args.get("workdir");
    if (args.get_flag("prepare")) return prepare(o);
    o.smoke = args.get_flag("smoke") ||
              (!args.has("workload") && bench::smoke());
    if (o.smoke) return run_smoke(o) ? 0 : 1;
    if (!args.has("workload"))
      throw std::invalid_argument("--workload is required");
    o.workload = args.get("workload");
    return run_workload(o) ? 0 : 1;
  } catch (const std::invalid_argument& err) {
    std::fprintf(stderr, "bench_e2e: %s\n%s", err.what(),
                 args.help_text().c_str());
    return 2;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "bench_e2e: %s\n", err.what());
    return 1;
  }
}

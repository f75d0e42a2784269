#pragma once
/// \file probes.hpp
/// The per-layer probes every traced run ends with. Each replays inputs the
/// workload itself produced through one layer, timed from outside:
///
///  - mirror decisions: for a few of the workload's mixes, a decorated
///    OmniBoostScheduler::schedule and the same decision re-run as
///    core::Mcts(layer counts, traced evaluator, forwarded config); the two
///    must return the same mapping. Splits a decision into MCTS tree work,
///    masked-input renders and estimator calls.
///  - nn replica: the estimator stack rebuilt with a span per layer, fed the
///    masked inputs the mirror rendered (batch 1, inference), then trained
///    on them for a few batch-16 steps (training mode) for backward times.
///  - DES: simulate and simulate_traced on the workload's (mix, mapping)
///    pairs.

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/embedding.hpp"
#include "core/estimator.hpp"
#include "core/omniboost.hpp"
#include "device/device.hpp"
#include "e2e/stats.hpp"
#include "e2e/trace.hpp"
#include "e2e/wrappers.hpp"
#include "models/zoo.hpp"
#include "sim/des.hpp"

namespace omniboost::e2e {

/// The simulated board and its profiled embedding, shared by every
/// workload.
struct Substrate {
  models::ModelZoo zoo;
  device::DeviceSpec device = device::make_hikey970();
  device::CostModel cost{device};
  core::EmbeddingTensor embedding{zoo, cost};
  sim::DesSimulator board{device};
};

using Totals = std::unordered_map<std::string, Tracer::Totals>;

/// Span totals accumulated between two snapshots.
inline Tracer::Totals delta(const Totals& after, const Totals& before,
                            const std::string& name) {
  Tracer::Totals d;
  const auto a = after.find(name);
  if (a == after.end()) return d;
  d = a->second;
  const auto b = before.find(name);
  if (b != before.end()) {
    d.total_us -= b->second.total_us;
    d.self_us -= b->second.self_us;
    d.count -= b->second.count;
  }
  return d;
}

struct MirrorOutcome {
  std::vector<double> decide_ms;  ///< the decorated schedule() per mix
  std::vector<tensor::Tensor> inputs;  ///< recorded masked inputs
};

/// Mirror decisions on \p mixes under \p config, recording the first
/// \p record_cap masked inputs they render. Reports core.omniboost.schedule_ms,
/// core.mcts.{tree_self_ms, evaluator_ms, cache_hit_ratio, tree_nodes,
/// closure}, core.embedding.masked_input_us and core.estimator.predict_us.
/// The mirror must reproduce the decision exactly (mapping, evaluations,
/// cache hits), and core.mcts.closure -- the median over mixes of mirror
/// time over schedule() time -- shows it also costs what the decision
/// costs, so its breakdown accounts for the decision's time. The median
/// of per-pair ratios resists the host's bursts of slowness that a ratio
/// of sums would absorb whole. A closure outside 1 +- 5% is a warning, not
/// a failed check: it is a timing ratio, and a co-tenant that slows one side
/// of enough pairs moves it whatever the code does.
inline MirrorOutcome mirror_decisions(
    const Substrate& sub, std::shared_ptr<const core::ThroughputEstimator> est,
    const core::OmniBoostConfig& config,
    const std::vector<workload::Workload>& mixes, std::size_t record_cap,
    Tracer& tracer, RunResult& report) {
  MirrorOutcome out;
  core::MctsConfig forwarded = config.mcts;
  forwarded.batch_size = config.batch_size;
  forwarded.cache = config.cache;
  DecisionStats stats;
  TimedScheduler scheduler(
      std::make_unique<core::OmniBoostScheduler>(sub.zoo, sub.embedding, est,
                                                 config),
      tracer, "core.omniboost.schedule", stats);
  const Tracer::NameId search_span = tracer.name("core.mcts.search");
  const Totals before = tracer.totals();
  double iterations = 0.0, hits = 0.0, nodes = 0.0;
  std::vector<double> ratios;
  CpuRotation cpus;  // both decisions of a pair run on the same CPU
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    const workload::Workload& w = mixes[i];
    cpus.next();
    tracer.begin_op();
    core::ScheduleResult decided;
    core::MctsResult mirrored;
    double mirror_ms = 0.0;
    const auto decide = [&] {
      const Clock::time_point t0 = Clock::now();
      decided = scheduler.schedule(w);
      out.decide_ms.push_back(1000.0 * seconds_since(t0));
    };
    const auto mirror = [&] {
      const Clock::time_point t0 = Clock::now();
      const Tracer::Scope span(tracer, search_span);
      core::Mcts search(w.layer_counts(sub.zoo),
                        traced_evaluator(sub.embedding, w, est, tracer,
                                         &out.inputs, record_cap),
                        forwarded);
      mirrored = search.search();
      mirror_ms = 1000.0 * seconds_since(t0);
    };
    // Alternate which of the pair runs first, so cache warm-up and clock
    // drift fall on both sides of the closure equally.
    if (i % 2 == 0) {
      decide();
      mirror();
    } else {
      mirror();
      decide();
    }
    ratios.push_back(mirror_ms / out.decide_ms.back());
    report.check(mirrored.best_mapping == decided.mapping &&
                     mirrored.evaluations == decided.evaluations &&
                     mirrored.cache_hits == decided.cache_hits,
                 "mirror decision differs from schedule() on " + w.describe());
    iterations += static_cast<double>(mirrored.iterations);
    hits += static_cast<double>(mirrored.cache_hits);
    nodes += static_cast<double>(mirrored.tree_nodes);
  }
  const Totals after = tracer.totals();
  const std::size_t n = mixes.size();
  const double dn = static_cast<double>(n);
  const Tracer::Totals decide = delta(after, before, "core.omniboost.schedule");
  const Tracer::Totals search = delta(after, before, "core.mcts.search");
  const Tracer::Totals evaluator = delta(after, before, "core.mcts.evaluator");
  const Tracer::Totals render =
      delta(after, before, "core.embedding.masked_input");
  const Tracer::Totals predict = delta(after, before, "core.estimator.predict");
  Metrics& m = report.metrics;
  m.add("core.omniboost.schedule_ms", decide.total_us / 1000.0 / dn, "ms", n);
  m.add("core.mcts.tree_self_ms", search.self_us / 1000.0 / dn, "ms", n);
  m.add("core.mcts.evaluator_ms", evaluator.total_us / 1000.0 / dn, "ms", n);
  m.add("core.mcts.cache_hit_ratio", iterations > 0.0 ? hits / iterations : 0.0,
        "ratio", n);
  m.add("core.mcts.tree_nodes", nodes / dn, "count", n);
  const double closure = nearest_rank(ratios, 50);
  m.add("core.mcts.closure", closure, "ratio", n);
  report.warn(closure > 0.95 && closure < 1.05,
              "core.mcts.closure outside 1 +- 5%");
  m.add("core.embedding.masked_input_us",
        render.total_us / static_cast<double>(render.count), "us",
        render.count);
  m.add("core.estimator.predict_us",
        predict.total_us / static_cast<double>(predict.count), "us",
        predict.count);
  return out;
}

/// The nn replica probe. core.estimator.forward_closure is the sum of the
/// per-layer forward times over the estimator's batch-1 predict_rewards
/// time on the same inputs; outside 1 +- 15% it is a warning, like the
/// MCTS closure.
inline void layer_probe(const core::ThroughputEstimator& est,
                        const std::vector<tensor::Tensor>& inputs,
                        Tracer& tracer, RunResult& report) {
  if (inputs.empty()) return;
  const std::unique_ptr<nn::Sequential> replica =
      build_timed_replica(core::EstimatorConfig{}, tracer);
  load_replica_weights(est, *replica);
  replica->set_training(false);

  const auto batch1 = [](const tensor::Tensor& x) {
    return x.reshaped({1, x.extent(0), x.extent(1), x.extent(2)});
  };
  {
    const tensor::Tensor y = replica->forward(batch1(inputs.front()));
    const std::array<double, 3> ref = est.predict_normalized(inputs.front());
    bool same = y.size() == 3;
    for (std::size_t d = 0; same && d < 3; ++d)
      same = static_cast<double>(y[d]) == ref[d];
    report.check(same, "nn replica output differs from the estimator");
  }

  // Each replica forward is paired with the estimator's own batch-1
  // predict_rewards on the same input, so the closure compares two
  // interleaved measurements rather than two phases apart in time.
  const Tracer::NameId forward_span = tracer.name("nn.forward");
  const Tracer::NameId predict_span = tracer.name("nn.forward.reference");
  const Totals before = tracer.totals();
  for (const tensor::Tensor& x : inputs) {
    tracer.begin_op();
    {
      const Tracer::Scope span(tracer, forward_span);
      replica->forward(batch1(x));
    }
    const Tracer::Scope span(tracer, predict_span);
    est.predict_rewards({x});
  }
  const Totals mid = tracer.totals();
  const double n = static_cast<double>(inputs.size());
  Metrics& m = report.metrics;
  double layers_us = 0.0;
  for (const char* layer : {"nn.conv2d", "nn.batchnorm2d", "nn.gelu",
                            "nn.maxpool2d", "nn.head"}) {
    const double us =
        delta(mid, before, std::string(layer) + ".forward").total_us / n;
    m.add(std::string(layer) + ".forward_us", us, "us", inputs.size());
    layers_us += us;
  }
  const double residual_self =
      delta(mid, before, "nn.residual.forward").self_us / n;
  m.add("nn.residual.self_us", residual_self, "us", inputs.size());
  layers_us += residual_self;
  const double closure =
      layers_us / (delta(mid, before, "nn.forward.reference").total_us / n);
  m.add("core.estimator.forward_closure", closure, "ratio", inputs.size());
  report.warn(closure > 0.85 && closure < 1.15,
              "core.estimator.forward_closure outside 1 +- 15%");

  // Training mode, batch 16: forward then backward of a unit gradient (the
  // optimizer step is not part of any layer).
  constexpr std::size_t kBatch = 16;
  replica->set_training(true);
  const Tracer::NameId step_span = tracer.name("nn.train_step");
  std::size_t steps = 0;
  for (std::size_t start = 0; start + kBatch <= inputs.size();
       start += kBatch) {
    const tensor::Tensor x = tensor::stack(std::vector<tensor::Tensor>(
        inputs.begin() + static_cast<std::ptrdiff_t>(start),
        inputs.begin() + static_cast<std::ptrdiff_t>(start + kBatch)));
    tracer.begin_op();
    const Tracer::Scope span(tracer, step_span);
    const tensor::Tensor y = replica->forward(x);
    replica->backward(tensor::Tensor(y.shape(), 1.0f));
    ++steps;
  }
  const Totals after = tracer.totals();
  for (const char* layer : {"nn.conv2d", "nn.batchnorm2d", "nn.gelu"}) {
    const double us =
        steps == 0 ? 0.0
                   : delta(after, mid, std::string(layer) + ".backward")
                             .total_us /
                         static_cast<double>(steps);
    m.add(std::string(layer) + ".backward_us", us, "us", steps);
  }
}

/// DES re-runs of the workload's (mix, mapping) pairs on the stock board.
inline void des_probe(
    const Substrate& sub,
    const std::vector<std::pair<workload::Workload, sim::Mapping>>& pairs,
    Tracer& tracer, RunResult& report) {
  if (pairs.empty()) return;
  const Tracer::NameId plain = tracer.name("sim.des.simulate");
  const Tracer::NameId traced = tracer.name("sim.des.simulate_traced");
  const Totals before = tracer.totals();
  for (const auto& [w, mapping] : pairs) {
    const sim::NetworkList nets = w.resolve(sub.zoo);
    tracer.begin_op();
    {
      const Tracer::Scope span(tracer, plain);
      sub.board.simulate(nets, mapping);
    }
    const Tracer::Scope span(tracer, traced);
    sub.board.simulate_traced(nets, mapping);
  }
  const Totals after = tracer.totals();
  const double n = static_cast<double>(pairs.size());
  report.metrics.add("sim.des.simulate_us",
                     delta(after, before, "sim.des.simulate").total_us / n,
                     "us", pairs.size());
  report.metrics.add(
      "sim.des.simulate_traced_us",
      delta(after, before, "sim.des.simulate_traced").total_us / n, "us",
      pairs.size());
}

}  // namespace omniboost::e2e

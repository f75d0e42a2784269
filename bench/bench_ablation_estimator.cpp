/// \file bench_ablation_estimator.cpp
/// Ablation A2 (DESIGN.md): what the evaluator quality buys. The identical
/// MCTS (budget 500, depth 100, stage limit 3) is driven by four different
/// mapping evaluators:
///   * the paper's trained CNN estimator;
///   * a MOSAIC-style linear probe (per-layer linear latency, no contention);
///   * the analytic steady-state model (contention-aware, queue-free);
///   * the DES oracle (ground truth — an upper bound no deployable system
///     has, since it would mean measuring every candidate on the board).

#include "bench_common.hpp"
#include "sched/search_common.hpp"

using namespace omniboost;

int main() {
  constexpr std::uint64_t kSeed = 33;
  bench::banner("Ablation A2 — evaluator quality",
                "Section IV-B (estimator role)", kSeed);

  bench::Context ctx;
  ctx.train_estimator();

  util::Rng rng(kSeed);
  std::vector<workload::Workload> mixes;
  for (int i = 0; i < 3; ++i) mixes.push_back(workload::random_mix(rng, 4));

  auto baseline = sched::AllOnScheduler::gpu_baseline(ctx.zoo());
  sched::MosaicScheduler linear_source(ctx.zoo(), ctx.device());

  util::Table t({"evaluator", "avg normalized T", "note"});

  const auto run = [&](const std::string& name,
                       const sched::WorkloadEvaluatorFactory& make_eval,
                       const std::string& note) {
    double norm = 0.0;
    for (const auto& w : mixes) {
      core::MctsConfig mc;
      mc.budget = 500;
      core::MctsScheduler sched(name, ctx.zoo(), make_eval(w), mc);
      const double tb = ctx.measure(w, baseline.schedule(w).mapping);
      norm += ctx.measure(w, sched.schedule(w).mapping) / tb;
    }
    t.add_row({name, util::fmt(norm / 3.0, 2), note});
  };

  // CNN estimator (the production configuration, via OmniBoostScheduler so
  // the light-first search ordering is included).
  {
    core::OmniBoostScheduler omni(ctx.zoo(), ctx.embedding(),
                                  ctx.estimator());
    double norm = 0.0;
    for (const auto& w : mixes) {
      const double tb = ctx.measure(w, baseline.schedule(w).mapping);
      norm += ctx.measure(w, omni.schedule(w).mapping) / tb;
    }
    t.add_row({"CNN estimator (OmniBoost)", util::fmt(norm / 3.0, 2),
               "paper configuration"});
  }

  run("linear probe",
      [&](const workload::Workload& w) -> core::MappingEvaluator {
        const auto nets = w.resolve(ctx.zoo());
        return [&, nets](const sim::Mapping& m) {
          // Contention-blind: per-DNN rate from summed linear layer times.
          double sum = 0.0;
          for (std::size_t i = 0; i < nets.size(); ++i) {
            double time = 0.0;
            const auto& a = m.assignment(i);
            for (std::size_t l = 0; l < a.size(); ++l)
              time += linear_source.component_model(a[l]).predict(
                  nets[i]->layers[l]);
            sum += 1.0 / time;
          }
          return sum / static_cast<double>(nets.size());
        };
      },
      "MOSAIC-style, contention-blind");

  run("analytic model",
      sched::analytic_evaluator_factory(
          ctx.zoo(), std::make_shared<const sim::AnalyticModel>(ctx.device())),
      "contention-aware closed form");

  run("DES oracle",
      sched::oracle_evaluator_factory(
          ctx.zoo(), std::make_shared<const sim::DesSimulator>(ctx.device())),
      "ground truth (not deployable)");

  bench::report("ablation_estimator", t);
  std::printf("\npaper check: the oracles bound what a perfect estimator "
              "would achieve; the CNN tracks their ranking but pays a "
              "sample-efficiency gap (the cost of learning the board), while "
              "the contention-blind probe collapses toward MOSAIC-like "
              "quality\n");
  return 0;
}

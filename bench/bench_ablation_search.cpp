/// \file bench_ablation_search.cpp
/// Ablation A5 (DESIGN.md): is MCTS buying anything over naive exploration?
/// Every search strategy gets the *same* trained estimator and the *same*
/// evaluation budget (the paper's 500 queries) on the same workloads:
/// random sampling, restarting hill climbing, simulated annealing, MCTS
/// (OmniBoost), plus the zero-query greedy list scheduler. Scores are
/// measured on the board simulator and normalized to all-on-GPU.

#include <algorithm>

#include "bench_common.hpp"
#include "sched/bnb.hpp"
#include "sched/greedy.hpp"
#include "sched/local_search.hpp"
#include "sched/search_common.hpp"

using namespace omniboost;

int main() {
  constexpr std::uint64_t kSeed = 19;
  constexpr std::size_t kBudget = 500;
  bench::banner("Ablation A5 — search strategy at equal budget",
                "Section IV-C (MCTS motivation)", kSeed);

  bench::Context ctx;
  std::printf("training the throughput estimator (calibrated campaign, see EXPERIMENTS.md)...\n\n");
  ctx.train_estimator();

  const auto factory = sched::estimator_evaluator_factory(
      ctx.zoo(), ctx.embedding(), ctx.estimator());

  sched::GreedyScheduler greedy(ctx.zoo(), ctx.device());

  sched::LocalSearchConfig rs_cfg;
  rs_cfg.budget = kBudget;
  rs_cfg.seed = kSeed;
  sched::RandomSearchScheduler random("RandomSearch", ctx.zoo(), factory,
                                      rs_cfg);

  sched::LocalSearchConfig hc_cfg;
  hc_cfg.budget = kBudget;
  hc_cfg.seed = kSeed;
  sched::HillClimbScheduler climb("HillClimb", ctx.zoo(), factory, hc_cfg);

  sched::LocalSearchConfig sa_cfg;
  sa_cfg.budget = kBudget;
  sa_cfg.seed = kSeed;
  sched::SimulatedAnnealingScheduler anneal("Annealing", ctx.zoo(), factory,
                                            sa_cfg);

  core::OmniBoostConfig ob_cfg;
  ob_cfg.mcts.budget = kBudget;
  ob_cfg.mcts.seed = kSeed;
  core::OmniBoostScheduler omni(ctx.zoo(), ctx.embedding(), ctx.estimator(),
                                ob_cfg);

  // The reference point: budgeted branch-and-bound over the analytic
  // objective. Its mapping lands in the "BnB" column; its certified upper
  // bound prices every other scheduler's gap.
  sched::BnbConfig bnb_cfg;
  bnb_cfg.timeout_ms = static_cast<double>(bench::scaled(200, 50));
  sched::BranchAndBoundScheduler bnb("BnB", ctx.zoo(), ctx.device(), bnb_cfg);
  const sim::AnalyticModel analytic(ctx.device());

  util::Table t({"mix", "workload", "Greedy", "Random", "HillClimb",
                 "Annealing", "MCTS", "BnB", "gap_vs_bound"});
  std::array<double, 6> sums{};
  double gap_sum = 0.0;

  util::Rng rng(kSeed);
  constexpr int kMixes = 5;
  for (int mix = 1; mix <= kMixes; ++mix) {
    const workload::Workload w = workload::random_mix(rng, 4);
    const sim::Mapping all_gpu = sim::Mapping::all_on(
        w.layer_counts(ctx.zoo()), device::ComponentId::kGpu);
    const double tb = ctx.measure(w, all_gpu);

    const auto mcts_r = omni.schedule(w);
    const auto bnb_r = bnb.schedule(w);
    const std::array<double, 6> norm = {
        ctx.measure(w, greedy.schedule(w).mapping) / tb,
        ctx.measure(w, random.schedule(w).mapping) / tb,
        ctx.measure(w, climb.schedule(w).mapping) / tb,
        ctx.measure(w, anneal.schedule(w).mapping) / tb,
        ctx.measure(w, mcts_r.mapping) / tb,
        ctx.measure(w, bnb_r.mapping) / tb,
    };
    for (std::size_t s = 0; s < norm.size(); ++s) sums[s] += norm[s];
    // MCTS's certified distance from BnB's admissible upper bound, both on
    // the analytic objective (0 = provably optimal w.r.t. the bound).
    const double ub = bnb_r.upper_bound.value_or(0.0);
    const double got =
        analytic.evaluate(w.resolve(ctx.zoo()), mcts_r.mapping).avg_throughput;
    const double gap = ub > 0.0 ? std::max(0.0, (ub - got) / ub) : 0.0;
    gap_sum += gap;
    t.add_row({"mix-" + std::to_string(mix), w.describe(),
               util::fmt(norm[0], 2), util::fmt(norm[1], 2),
               util::fmt(norm[2], 2), util::fmt(norm[3], 2),
               util::fmt(norm[4], 2), util::fmt(norm[5], 2),
               util::fmt(gap, 3)});
  }
  std::vector<std::string> avg = {"Average", ""};
  for (const double s : sums) avg.push_back(util::fmt(s / kMixes, 2));
  avg.push_back(util::fmt(gap_sum / kMixes, 3));
  t.add_row(std::move(avg));

  std::printf("--- 4-DNN mixes, %zu estimator queries per informed search "
              "(normalized to all-on-GPU; gap_vs_bound = MCTS distance from "
              "BnB's certified upper bound) ---\n", kBudget);
  bench::report("ablation_search", t);

  std::printf("\npaper check: informed searches beat the zero-query greedy; "
              "MCTS is at least competitive with budget-matched local "
              "searches while needing no temperature/stall tuning\n");
  return 0;
}

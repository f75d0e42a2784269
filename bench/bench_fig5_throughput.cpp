/// \file bench_fig5_throughput.cpp
/// Regenerates Figure 5 (§V-A): normalized average throughput of Baseline
/// (all-on-GPU), MOSAIC, GA and OmniBoost over five random mixes each of
/// 3, 4 and 5 concurrent DNNs — plus the repo's own reference point: a
/// budgeted branch-and-bound (BnB) column and a `gap_vs_bound` column, the
/// certified distance between OmniBoost's mapping and BnB's admissible upper
/// bound on the analytic objective (0 = provably optimal w.r.t. the bound).
///
/// Paper shapes (the closing lines print the paper's ordering next to the
/// one this run measured; at seed 7 GA beats OmniBoost on 3- and 4-DNN
/// mixes and MOSAIC trails the baseline there):
///  * 3-DNN mixes (5a): OmniBoost ~+54% over baseline, ahead of MOSAIC/GA;
///    at least one light mix where all schedulers are close.
///  * 4-DNN mixes (5b): the big win — baseline and MOSAIC overload the GPU;
///    OmniBoost reaches multiples of the baseline (paper: x4.6 avg) and
///    stays ahead of the GA (paper: +23%).
///  * 5-DNN mixes (5c): everything saturates; gains compress (paper:
///    MOSAIC ~baseline, GA +7%, OmniBoost +22%).

#include <algorithm>
#include <string>

#include "bench_common.hpp"
#include "sched/bnb.hpp"

using namespace omniboost;

namespace {

/// Certified optimality gap of mapping \p m against BnB's upper bound \p ub:
/// both sides scored on the analytic objective the bound is admissible for.
double gap_vs_bound(const bench::Context& ctx, const sim::AnalyticModel& model,
                    const workload::Workload& w, const sim::Mapping& m,
                    double ub) {
  if (ub <= 0.0) return 0.0;
  const double got = model.evaluate(w.resolve(ctx.zoo()), m).avg_throughput;
  return std::max(0.0, (ub - got) / ub);
}

/// Runs one mix size and returns its measured ordering of the paper's four
/// schedulers by average normalized throughput, e.g. "MOSAIC < Baseline <
/// OmniBoost < GA".
std::string run_mix_size(bench::Context& ctx,
                         const sim::AnalyticModel& analytic,
                         std::size_t mix_size, std::uint64_t seed) {
  util::Rng rng(seed);

  auto baseline = sched::AllOnScheduler::gpu_baseline(ctx.zoo());
  sched::MosaicScheduler mosaic(ctx.zoo(), ctx.device());
  sched::GaScheduler ga(ctx.zoo(), ctx.device());
  core::OmniBoostScheduler omni(ctx.zoo(), ctx.embedding(), ctx.estimator());
  sched::BnbConfig bnb_cfg;
  bnb_cfg.timeout_ms = static_cast<double>(bench::scaled(200, 50));
  sched::BranchAndBoundScheduler bnb("BnB", ctx.zoo(), ctx.device(), bnb_cfg);

  util::Table t({"mix", "workload", "Baseline", "MOSAIC", "GA", "OmniBoost",
                 "BnB", "gap_vs_bound"});
  std::array<double, 5> sums{};
  double gap_sum = 0.0;

  for (int mix = 1; mix <= 5; ++mix) {
    const workload::Workload w = workload::random_mix(rng, mix_size);
    const double tb = ctx.measure(w, baseline.schedule(w).mapping);
    const auto omni_r = omni.schedule(w);
    const auto bnb_r = bnb.schedule(w);
    std::array<double, 5> norm{};
    norm[0] = 1.0;
    norm[1] = ctx.measure(w, mosaic.schedule(w).mapping) / tb;
    norm[2] = ctx.measure(w, ga.schedule(w).mapping) / tb;
    norm[3] = ctx.measure(w, omni_r.mapping) / tb;
    norm[4] = ctx.measure(w, bnb_r.mapping) / tb;
    for (std::size_t s = 0; s < norm.size(); ++s) sums[s] += norm[s];
    const double gap = gap_vs_bound(ctx, analytic, w, omni_r.mapping,
                                    bnb_r.upper_bound.value_or(0.0));
    gap_sum += gap;

    t.add_row({"mix-" + std::to_string(mix), w.describe(),
               util::fmt(norm[0], 2), util::fmt(norm[1], 2),
               util::fmt(norm[2], 2), util::fmt(norm[3], 2),
               util::fmt(norm[4], 2), util::fmt(gap, 3)});
  }
  t.add_row({"Average", "",
             util::fmt(sums[0] / 5.0, 2), util::fmt(sums[1] / 5.0, 2),
             util::fmt(sums[2] / 5.0, 2), util::fmt(sums[3] / 5.0, 2),
             util::fmt(sums[4] / 5.0, 2), util::fmt(gap_sum / 5.0, 3)});

  std::printf("--- Fig. 5%c: five random mixes of %zu concurrent DNNs "
              "(normalized to all-on-GPU; gap_vs_bound = certified distance "
              "of OmniBoost from BnB's upper bound, analytic objective) ---\n",
              static_cast<char>('a' + (mix_size - 3)), mix_size);
  bench::report("fig5_throughput_mix" + std::to_string(mix_size), t);
  std::printf("OmniBoost vs baseline: x%.2f | vs MOSAIC: x%.2f | vs GA: "
              "%+.0f%%\n\n",
              sums[3] / sums[0], sums[3] / sums[1],
              (sums[3] / sums[2] - 1.0) * 100.0);

  const char* names[] = {"Baseline", "MOSAIC", "GA", "OmniBoost"};
  std::array<std::size_t, 4> order{0, 1, 2, 3};
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sums[a] < sums[b];
                   });
  std::string ordering;
  for (const std::size_t s : order)
    ordering += (ordering.empty() ? "" : " < ") + std::string(names[s]);
  return ordering;
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 7;
  bench::banner("Fig. 5 — multi-DNN throughput comparison",
                "Figures 5a-5c, Section V-A", kSeed);

  bench::Context ctx;
  std::printf("training the throughput estimator (calibrated campaign, see EXPERIMENTS.md)...\n\n");
  ctx.train_estimator();
  const sim::AnalyticModel analytic(ctx.device());

  std::string measured;
  for (const std::size_t mix_size : {3u, 4u, 5u}) {
    measured += "\n  " + std::to_string(mix_size) + "-DNN: " +
                run_mix_size(ctx, analytic, mix_size, kSeed + mix_size);
  }

  std::printf("paper claim: Baseline < MOSAIC < GA < OmniBoost on average at "
              "every mix size, largest gains at 4-DNN mixes\n"
              "this run, by average throughput:%s\n",
              measured.c_str());
  return 0;
}

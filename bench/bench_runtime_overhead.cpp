/// \file bench_runtime_overhead.cpp
/// Regenerates the §V-B run-time comparison with google-benchmark: the
/// decision latency of each scheduler on a fixed 4-DNN mix, plus the one-off
/// costs the paper discusses (MOSAIC's 14k-point data collection, the GA's
/// per-mix on-board retraining, OmniBoost's 500 estimator queries).
///
/// Paper shape to reproduce: Baseline ~ 0; MOSAIC inference fast (~1 s on
/// the board) but with a large offline collection cost; GA minutes per mix
/// (board time); OmniBoost a constant 500-query search (~30 s on the board,
/// milliseconds here because the estimator is native C++ rather than a
/// Python stack).

// google-benchmark powers the micro-benchmark section only; the result
// tables (and their JSON exports) must not disappear on hosts without it.
#ifdef OMNIBOOST_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "nn/kernel.hpp"
#include "nn/layers.hpp"
#include "tensor/simd.hpp"
#include "tensor/tensor.hpp"
#include "bench_common.hpp"

using namespace omniboost;

namespace {

bench::Context& ctx() {
  static bench::Context c;
  return c;
}

const workload::Workload& mix() {
  static const workload::Workload w{
      {models::ModelId::kVgg19, models::ModelId::kResNet50,
       models::ModelId::kInceptionV3, models::ModelId::kMobileNet}};
  return w;
}

/// A private copy of the trained estimator running on \p kind
/// (serialization round-trip: bit-exact weights and preprocessing). The
/// scheduler searches with its estimator's own kernel, so each kernel's
/// decision rows run on one of these.
std::shared_ptr<core::ThroughputEstimator> estimator_clone(
    nn::KernelKind kind) {
  std::stringstream blob;
  ctx().estimator()->save(blob);
  auto clone = std::make_shared<core::ThroughputEstimator>(
      core::ThroughputEstimator::load(blob));
  clone->set_kernel(kind);
  return clone;
}

#ifdef OMNIBOOST_HAVE_GBENCH

void BM_BaselineDecision(benchmark::State& state) {
  auto sched = sched::AllOnScheduler::gpu_baseline(ctx().zoo());
  for (auto _ : state) benchmark::DoNotOptimize(sched.schedule(mix()));
}
BENCHMARK(BM_BaselineDecision);

void BM_MosaicDecision(benchmark::State& state) {
  static sched::MosaicScheduler sched(ctx().zoo(), ctx().device());
  for (auto _ : state) benchmark::DoNotOptimize(sched.schedule(mix()));
}
BENCHMARK(BM_MosaicDecision)->Unit(benchmark::kMillisecond);

void BM_GaDecision(benchmark::State& state) {
  static sched::GaScheduler sched(ctx().zoo(), ctx().device());
  for (auto _ : state) benchmark::DoNotOptimize(sched.schedule(mix()));
}
BENCHMARK(BM_GaDecision)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_OmniBoostDecision(benchmark::State& state) {
  static core::OmniBoostScheduler sched(ctx().zoo(), ctx().embedding(),
                                        ctx().estimator());
  for (auto _ : state) benchmark::DoNotOptimize(sched.schedule(mix()));
}
BENCHMARK(BM_OmniBoostDecision)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_EstimatorQuery(benchmark::State& state) {
  auto est = ctx().estimator();
  const auto counts = mix().layer_counts(ctx().zoo());
  const auto input = ctx().embedding().masked_input(
      mix(), sim::Mapping::all_on(counts, device::ComponentId::kGpu));
  for (auto _ : state) benchmark::DoNotOptimize(est->predict_reward(input));
}
BENCHMARK(BM_EstimatorQuery)->Unit(benchmark::kMicrosecond);

void BM_EstimatorQueryBatch16(benchmark::State& state) {
  // 16 queries amortized over one batched forward pass; compare the
  // per-iteration time against 16x BM_EstimatorQuery.
  auto est = ctx().estimator();
  const auto counts = mix().layer_counts(ctx().zoo());
  std::vector<tensor::Tensor> inputs(
      16, ctx().embedding().masked_input(
              mix(), sim::Mapping::all_on(counts, device::ComponentId::kGpu)));
  for (auto _ : state) benchmark::DoNotOptimize(est->predict_rewards(inputs));
}
BENCHMARK(BM_EstimatorQueryBatch16)->Unit(benchmark::kMicrosecond);

void BM_BoardMeasurement(benchmark::State& state) {
  // One GA fitness evaluation = one steady-state board simulation.
  const auto nets = mix().resolve(ctx().zoo());
  const auto m = sim::Mapping::all_on(mix().layer_counts(ctx().zoo()),
                                      device::ComponentId::kGpu);
  for (auto _ : state)
    benchmark::DoNotOptimize(ctx().board().simulate(nets, m));
}
BENCHMARK(BM_BoardMeasurement)->Unit(benchmark::kMillisecond);

#endif  // OMNIBOOST_HAVE_GBENCH

}  // namespace

/// Wall-clock of \p fn over \p repeats runs: the minimum (the work is
/// deterministic, so the minimum is the run least disturbed by background
/// load) plus the run-to-run stddev for callers that want to publish the
/// load-variance signal (the column_stats block in the JSON summarizes
/// across *rows*, not runs).
struct TimedRuns {
  double min_s = std::numeric_limits<double>::infinity();
  double stddev_s = 0.0;
};

template <typename Fn>
TimedRuns timed_runs(std::size_t repeats, const Fn& fn) {
  TimedRuns out;
  util::RunningStats rs;
  for (std::size_t i = 0; i < repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    rs.add(s);
    out.min_s = std::min(out.min_s, s);
  }
  out.stddev_s = rs.stddev();
  return out;
}

/// p-th percentile (nearest rank, p in [0, 1]) of a sample set.
double percentile_ms(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(
      std::llround(p * static_cast<double>(samples.size() - 1)));
  return samples[std::min(idx, samples.size() - 1)];
}

/// The compute-kernel table's agreement gate: every row's max |delta| must
/// stay within the D3 kernel tolerance (docs/DETERMINISM.md), or the bench
/// exits non-zero.
class D3Gate {
 public:
  static constexpr double kTolerance = 1e-5;

  void check(const char* row, double max_delta) {
    if (max_delta <= kTolerance) return;  // a NaN delta fails too
    ok_ = false;
    std::fprintf(stderr, "D3 violated: '%s' max |delta| %.3g > %.0e\n", row,
                 max_delta, kTolerance);
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

/// One row of the compute-kernel table: an estimator layer timed under the
/// reference, gemm and simd kernels at the production wave width, with the
/// max pairwise output deviation proving the lowerings agree (checked by
/// \p gate). Returns {reference ms, gemm ms, simd ms} so the caller can
/// publish an aggregate.
std::array<double, 3> add_kernel_row(util::Table& t, D3Gate& gate,
                                     const char* label, nn::Module& ref,
                                     nn::Module& gemm, nn::Module& simd,
                                     const tensor::Tensor& x,
                                     std::size_t inner_reps,
                                     std::size_t repeats) {
  ref.set_kernel(nn::KernelKind::kReference);
  gemm.set_kernel(nn::KernelKind::kGemm);
  simd.set_kernel(nn::KernelKind::kSimd);
  const tensor::Tensor ya = ref.forward(x);
  const tensor::Tensor yb = gemm.forward(x);
  const tensor::Tensor yc = simd.forward(x);
  double max_delta = 0.0;
  for (std::size_t i = 0; i < ya.size(); ++i) {
    max_delta = std::max(
        max_delta, std::fabs(static_cast<double>(ya[i]) - yb[i]));
    max_delta = std::max(
        max_delta, std::fabs(static_cast<double>(yb[i]) - yc[i]));
  }
  gate.check(label, max_delta);

  const double scale = 1e3 / static_cast<double>(inner_reps);
  const TimedRuns ref_t = timed_runs(repeats, [&] {
    for (std::size_t i = 0; i < inner_reps; ++i) ref.forward(x);
  });
  const TimedRuns gemm_t = timed_runs(repeats, [&] {
    for (std::size_t i = 0; i < inner_reps; ++i) gemm.forward(x);
  });
  const TimedRuns simd_t = timed_runs(repeats, [&] {
    for (std::size_t i = 0; i < inner_reps; ++i) simd.forward(x);
  });
  const double ref_ms = scale * ref_t.min_s;
  const double gemm_ms = scale * gemm_t.min_s;
  const double simd_ms = scale * simd_t.min_s;
  t.add_row({label, std::to_string(x.extent(0)), util::fmt(ref_ms, 3),
             util::fmt(gemm_ms, 3), util::fmt(simd_ms, 3),
             util::fmt(ref_ms / gemm_ms, 2),
             util::fmt(gemm_ms / simd_ms, 2),
             util::fmt(max_delta * 1e6, 3)});
  return {ref_ms, gemm_ms, simd_ms};
}

/// Decision latency of one OmniBoost evaluate-path variant: the minimum
/// over \p repeats decisions at a fixed rollout budget (min, not mean — the
/// decision is deterministic, so the minimum is the run least disturbed by
/// background load).
void add_variant_row(util::Table& t, const char* label, std::size_t batch,
                     bool cache, std::size_t budget, std::size_t repeats,
                     double* scalar_ms) {
  core::OmniBoostConfig cfg;
  cfg.mcts.budget = budget;
  cfg.batch_size = batch;
  cfg.cache = cache;
  core::OmniBoostScheduler sched(ctx().zoo(), ctx().embedding(),
                                 ctx().estimator(), cfg);
  double seconds = std::numeric_limits<double>::infinity();
  core::ScheduleResult r;
  for (std::size_t i = 0; i < repeats; ++i) {
    r = sched.schedule(mix());
    seconds = std::min(seconds, r.decision_seconds);
  }
  const double ms = 1e3 * seconds;
  if (*scalar_ms == 0.0) *scalar_ms = ms;  // first row is the reference
  t.add_row({label, std::to_string(batch), cache ? "on" : "off",
             util::fmt(ms, 1), std::to_string(r.evaluations),
             std::to_string(r.cache_hits), util::fmt(*scalar_ms / ms, 2)});
}

int main(int argc, char** argv) {
  bench::banner("Run-time performance evaluation", "Section V-B", 7);

  // One-off cost accounting (the part google-benchmark cannot show).
  std::printf("training the throughput estimator (one-off, design time)...\n");
  ctx().train_estimator();

  sched::MosaicScheduler mosaic(ctx().zoo(), ctx().device());
  sched::GaScheduler ga(ctx().zoo(), ctx().device());
  core::OmniBoostScheduler omni(ctx().zoo(), ctx().embedding(),
                                ctx().estimator());
  const auto rg = ga.schedule(mix());
  const auto ro = omni.schedule(mix());

  // The "board seconds" column is plain numeric on every row so the table
  // keeps a column_stats summary in its JSON export (bench-JSON guard).
  util::Table t({"scheduler", "decision model", "one-off / per-mix cost",
                 "board seconds", "evaluator queries"});
  t.add_row({"Baseline", "none", "none", "0", "0"});
  t.add_row({"MOSAIC", "linear regression",
             "offline collection: " +
                 std::to_string(mosaic.training_samples()) + " samples, " +
                 util::fmt(mosaic.training_board_seconds() / 60.0, 1) +
                 " board-minutes",
             util::fmt(mosaic.training_board_seconds(), 1), "1 per DNN"});
  t.add_row({"GA", "on-board measurements",
             "per mix: " + util::fmt(rg.board_seconds / 60.0, 1) +
                 " board-minutes (paper: ~5 min)",
             util::fmt(rg.board_seconds, 1), std::to_string(rg.evaluations)});
  t.add_row({"OmniBoost", "CNN estimator",
             "500 estimator queries per mix (paper: ~30 s)", "0",
             std::to_string(ro.evaluations + ro.cache_hits)});
  bench::report("runtime_overhead", t);

  // Evaluate-path ablation: the same 500-rollout decision through the
  // scalar/sequential paper path versus the batched forward
  // (OmniBoostConfig::batch_size) and the evaluation memo
  // (OmniBoostConfig::cache). Equal rollout budget everywhere; the decision
  // differs only where wider waves legitimately explore differently.
  const std::size_t budget = bench::scaled(500, 40);
  const std::size_t repeats = bench::scaled(5, 1);
  std::printf("\nevaluate-path variants (budget %zu, min of %zu decisions):\n",
              budget, repeats);
  util::Table bt({"variant", "batch", "cache", "decision (ms)", "evaluations",
                  "cache hits", "speedup"});
  double scalar_ms = 0.0;
  add_variant_row(bt, "scalar (paper path)", 1, false, budget, repeats,
                  &scalar_ms);
  add_variant_row(bt, "scalar+cache", 1, true, budget, repeats, &scalar_ms);
  add_variant_row(bt, "batched", 16, false, budget, repeats, &scalar_ms);
  add_variant_row(bt, "batched+cache", 16, true, budget, repeats, &scalar_ms);
  bench::report("runtime_overhead_batching", bt);

  // Compute-kernel ablation: every conv stage of the estimator CNN, the
  // inference GELU, the full batched CNN forward, and the end-to-end
  // decision, each timed under the bit-frozen reference loops, the
  // im2col+GEMM lowering (rational-tanh GELU), and the runtime-dispatched
  // SIMD micro-kernels (nn::KernelKind). "max |delta|" certifies equal
  // results: the largest element-wise output difference across the
  // lowerings, in units of 1e-6. A row above the D3 tolerance fails the run.
  D3Gate d3;
  {
    const std::size_t m = ctx().embedding().models_dim();
    const std::size_t l = ctx().embedding().layers_dim();
    const std::size_t wave = 16;  // production expansion-wave width
    const std::size_t kernel_reps = bench::scaled(50, 5);
    const std::size_t kernel_repeats = bench::scaled(5, 2);
    std::printf("\ncompute kernels, reference vs gemm vs simd (isa: %s; "
                "batch %zu unless the row says, min of %zu x %zu "
                "forwards):\n",
                tensor::simd_isa(), wave, kernel_repeats, kernel_reps);
    util::Table kt({"stage", "batch", "reference (ms)", "gemm (ms)",
                    "simd (ms)", "ref/gemm", "gemm/simd",
                    "max |delta| (1e-6)"});

    struct Stage {
      const char* label;
      std::size_t in_ch, out_ch, h, w;
    };
    const Stage stages[] = {
        {"conv 3->8 (stem)", 3, 8, m, l},
        {"conv 8->16", 8, 16, m / 2, l / 2},
        {"conv 16->16 (residual)", 16, 16, m / 4, l / 4},
        {"conv 16->24", 16, 24, m / 4, l / 4},
        {"conv 24->24 (residual)", 24, 24, m / 4, l / 4},
    };
    util::Rng rng(7);
    double conv_ref_ms = 0.0, conv_gemm_ms = 0.0, conv_simd_ms = 0.0;
    for (const Stage& s : stages) {
      util::Rng init_a(11), init_b(11), init_c(11);
      nn::Conv2d ref(s.in_ch, s.out_ch, 3, 1, 1);
      nn::Conv2d gemm(s.in_ch, s.out_ch, 3, 1, 1);
      nn::Conv2d simd(s.in_ch, s.out_ch, 3, 1, 1);
      ref.init(init_a);
      gemm.init(init_b);
      simd.init(init_c);
      tensor::Tensor x({wave, s.in_ch, s.h, s.w});
      for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      const auto [r_ms, g_ms, s_ms] =
          add_kernel_row(kt, d3, s.label, ref, gemm, simd, x, kernel_reps,
                         kernel_repeats);
      conv_ref_ms += r_ms;
      conv_gemm_ms += g_ms;
      conv_simd_ms += s_ms;
    }
    // The headline: all conv-forward work of one batched CNN traversal.
    kt.add_row({"conv forward total (5 stages)", std::to_string(wave),
                util::fmt(conv_ref_ms, 3), util::fmt(conv_gemm_ms, 3),
                util::fmt(conv_simd_ms, 3),
                util::fmt(conv_ref_ms / conv_gemm_ms, 2),
                util::fmt(conv_gemm_ms / conv_simd_ms, 2), "-"});

    // The estimator's largest activation: GELU over the stem's output, in
    // inference mode (the only mode with a non-reference lowering).
    {
      nn::GELU ref, gemm, simd;
      for (nn::Module* g : {&ref, &gemm, &simd}) g->set_training(false);
      tensor::Tensor x({wave, 8, m, l});
      for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-4.0, 4.0));
      add_kernel_row(kt, d3, "GELU forward (inference)", ref, gemm, simd, x,
                     kernel_reps, kernel_repeats);
    }

    // Full CNN forward: one reward query per kernel kind, at the expansion-
    // wave width and at batch 1 (the default cold decision's shape, where
    // every conv block runs fused under gemm/simd).
    {
      const auto ref_est = estimator_clone(nn::KernelKind::kReference);
      const auto gemm_est = estimator_clone(nn::KernelKind::kGemm);
      const auto simd_est = estimator_clone(nn::KernelKind::kSimd);
      const auto counts = mix().layer_counts(ctx().zoo());
      const tensor::Tensor input = ctx().embedding().masked_input(
          mix(), sim::Mapping::all_on(counts, device::ComponentId::kGpu));
      for (const std::size_t batch : {wave, std::size_t{1}}) {
        const std::vector<tensor::Tensor> inputs(batch, input);
        const auto ra = ref_est->predict_rewards(inputs);
        const auto rb = gemm_est->predict_rewards(inputs);
        const auto rc = simd_est->predict_rewards(inputs);
        double max_delta = 0.0;
        for (std::size_t i = 0; i < ra.size(); ++i) {
          max_delta = std::max(max_delta, std::fabs(ra[i] - rb[i]));
          max_delta = std::max(max_delta, std::fabs(rb[i] - rc[i]));
        }
        const double scale = 1e3 / static_cast<double>(kernel_reps);
        const TimedRuns ref_t = timed_runs(kernel_repeats, [&] {
          for (std::size_t i = 0; i < kernel_reps; ++i)
            ref_est->predict_rewards(inputs);
        });
        const TimedRuns gemm_t = timed_runs(kernel_repeats, [&] {
          for (std::size_t i = 0; i < kernel_reps; ++i)
            gemm_est->predict_rewards(inputs);
        });
        const TimedRuns simd_t = timed_runs(kernel_repeats, [&] {
          for (std::size_t i = 0; i < kernel_reps; ++i)
            simd_est->predict_rewards(inputs);
        });
        const std::string label =
            batch == 1 ? "estimator CNN forward (batch 1)"
                       : "estimator CNN forward";
        d3.check(label.c_str(), max_delta);
        kt.add_row({label, std::to_string(batch),
                    util::fmt(scale * ref_t.min_s, 3),
                    util::fmt(scale * gemm_t.min_s, 3),
                    util::fmt(scale * simd_t.min_s, 3),
                    util::fmt(ref_t.min_s / gemm_t.min_s, 2),
                    util::fmt(gemm_t.min_s / simd_t.min_s, 2),
                    util::fmt(max_delta * 1e6, 3)});
      }
    }

    // End-to-end decision under each kernel (same budget as the batching
    // table; wave-width batches, cache on — the production configuration).
    {
      TimedRuns runs[3];
      double reward[3];
      int i = 0;
      for (const nn::KernelKind kind :
           {nn::KernelKind::kReference, nn::KernelKind::kGemm,
            nn::KernelKind::kSimd}) {
        core::OmniBoostConfig cfg;
        cfg.mcts.budget = budget;
        cfg.batch_size = 16;
        core::OmniBoostScheduler sched(ctx().zoo(), ctx().embedding(),
                                       estimator_clone(kind), cfg);
        core::ScheduleResult r;
        runs[i] = timed_runs(kernel_repeats,
                             [&] { r = sched.schedule(mix()); });
        reward[i] = r.expected_reward;
        ++i;
      }
      const double reward_delta =
          std::max(std::fabs(reward[0] - reward[1]),
                   std::fabs(reward[1] - reward[2]));
      d3.check("decision (500 rollouts)", reward_delta);
      kt.add_row({"decision (500 rollouts)", "16",
                  util::fmt(1e3 * runs[0].min_s, 1),
                  util::fmt(1e3 * runs[1].min_s, 1),
                  util::fmt(1e3 * runs[2].min_s, 1),
                  util::fmt(runs[0].min_s / runs[1].min_s, 2),
                  util::fmt(runs[1].min_s / runs[2].min_s, 2),
                  util::fmt(reward_delta * 1e6, 3)});
    }
    bench::report("runtime_overhead_kernels", kt);
  }

  // Warm-decision latency percentiles: repeated identical warm reschedules
  // (identity carried_from, no SLOs) per kernel kind — the steady-state
  // serving decision the ISSUE's sub-millisecond target is about. p50/p99
  // over the decision population, not min-of-repeats: tail latency is the
  // serving-relevant number.
  {
    const std::size_t warm_n = bench::scaled(24, 8);
    std::printf("\nwarm-decision latency percentiles (%zu decisions per "
                "kernel, budget %zu):\n",
                warm_n, budget);
    util::Table wt({"kernel", "decisions", "p50 (ms)", "p99 (ms)", "min (ms)",
                    "mean (ms)"});
    for (const nn::KernelKind kind :
         {nn::KernelKind::kReference, nn::KernelKind::kGemm,
          nn::KernelKind::kSimd}) {
      core::OmniBoostConfig cfg;
      cfg.mcts.budget = budget;
      cfg.batch_size = 16;
      core::OmniBoostScheduler sched(ctx().zoo(), ctx().embedding(),
                                     estimator_clone(kind), cfg);
      const core::ScheduleResult cold = sched.schedule(mix());
      core::ScheduleContext sctx;
      sctx.carried_from = {0, 1, 2, 3};
      sim::Mapping prev = cold.mapping;
      std::vector<double> ms;
      ms.reserve(warm_n);
      double sum = 0.0;
      for (std::size_t i = 0; i < warm_n; ++i) {
        const core::ScheduleResult r = sched.reschedule(mix(), prev, sctx);
        ms.push_back(1e3 * r.decision_seconds);
        sum += ms.back();
        prev = r.mapping;
      }
      wt.add_row({nn::kernel_name(kind), std::to_string(warm_n),
                  util::fmt(percentile_ms(ms, 0.50), 3),
                  util::fmt(percentile_ms(ms, 0.99), 3),
                  util::fmt(*std::min_element(ms.begin(), ms.end()), 3),
                  util::fmt(sum / static_cast<double>(warm_n), 3)});
    }
    bench::report("runtime_overhead_warm_percentiles", wt);
  }

#ifdef OMNIBOOST_HAVE_GBENCH
  if (bench::smoke()) {
    std::printf("\n[smoke] skipping google-benchmark micro-benchmarks\n");
    return d3.ok() ? 0 : 1;
  }
  std::printf("\nmicro-benchmarks (decision latency on this machine):\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
#else
  (void)argc;
  (void)argv;
  std::printf("\n[info] built without google-benchmark; micro-benchmark "
              "section skipped\n");
#endif
  return d3.ok() ? 0 : 1;
}

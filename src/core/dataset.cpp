#include "core/dataset.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "util/require.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace omniboost::core {

namespace {

/// Per-slot redraw budget of the parallel pipeline. The sequential
/// pipeline's cap is global (samples * 20), so slack is shared across
/// samples; a per-slot cap has to be far above the *average* redraw count
/// or rare unlucky slots abort campaigns the sequential path would finish
/// (at a 10%-feasible board, a cap of 20 fails a given slot with p ~ 0.12
/// — near-certain abort over 1000 slots; 200 pushes that below 1e-9 while
/// still bounding a truly infeasible configuration).
constexpr std::size_t kSlotAttempts = 200;

/// Mix sizes are drawn uniformly from [kMinMix, kMaxMix] (paper: 1-5 DNNs).
constexpr std::size_t kMinMix = 1;
constexpr std::size_t kMaxMix = 5;

/// One training sample produced by a slot (inputs/targets land in slot
/// order regardless of which worker computed them).
struct Sample {
  tensor::Tensor input;
  std::array<double, 3> target;
};

/// Runs the slot-seeded pipeline: draw_slot(rng, board) must draw one
/// candidate from the given stream and return whether it was feasible,
/// filling \p out on success. Byte-identical for every worker count.
template <typename DrawSlot>
SampleSet run_parallel_pipeline(const sim::DesSimulator& board,
                                const DatasetConfig& config,
                                const DrawSlot& draw_slot) {
  util::ThreadPool pool(
      util::ThreadPool::clamped(config.workers, config.samples));

  // One private simulator per worker (the DES itself is stateless per
  // simulate() call, but per-worker clones keep the contract local and the
  // shared simulator untouched).
  std::vector<std::unique_ptr<sim::DesSimulator>> sims;
  sims.reserve(pool.size());
  for (std::size_t w = 0; w < pool.size(); ++w) sims.push_back(board.clone());

  std::vector<Sample> samples(config.samples);
  pool.parallel_for(
      config.samples, [&](std::size_t slot, std::size_t worker) {
        util::Rng rng(util::fork_stream(config.seed, slot));
        for (std::size_t attempt = 0; attempt < kSlotAttempts; ++attempt) {
          if (draw_slot(rng, *sims[worker], samples[slot])) return;
        }
        OB_ENSURE(false, "generate_dataset: too many infeasible workloads");
      });

  SampleSet set;
  set.inputs.reserve(config.samples);
  set.targets.reserve(config.samples);
  for (Sample& s : samples) {
    set.inputs.push_back(std::move(s.input));
    set.targets.push_back(s.target);
  }
  return set;
}

}  // namespace

SampleSet generate_dataset(const models::ModelZoo& zoo,
                           const EmbeddingTensor& embedding,
                           const sim::DesSimulator& board,
                           const DatasetConfig& config) {
  OB_REQUIRE(config.samples > 0, "generate_dataset: zero samples");

  if (config.workers >= 1) {
    return run_parallel_pipeline(
        board, config,
        [&](util::Rng& rng, const sim::DesSimulator& sim, Sample& out) {
          const std::size_t n = static_cast<std::size_t>(
              rng.range(static_cast<std::int64_t>(kMinMix),
                        static_cast<std::int64_t>(kMaxMix)));
          const workload::Workload w = workload::random_mix(rng, n);
          const sim::Mapping mapping =
              workload::random_mapping(rng, zoo, w, sim::kStageLimit);
          const sim::ThroughputReport report =
              sim.simulate(w.resolve(zoo), mapping);
          if (!report.feasible) return false;
          out.input = embedding.masked_input(w, mapping);
          out.target = {report.per_component_rate[0],
                        report.per_component_rate[1],
                        report.per_component_rate[2]};
          return true;
        });
  }

  // workers == 0: the original single-stream pipeline, kept bit-frozen to
  // preserve the exact RNG draw sequence of the original campaign — the
  // trained estimator (and with it every figure) is reproducible from the
  // seed across releases.
  util::Rng rng(config.seed);
  SampleSet set;
  set.inputs.reserve(config.samples);
  set.targets.reserve(config.samples);

  std::size_t attempts = 0;
  const std::size_t max_attempts = config.samples * 20;
  while (set.size() < config.samples) {
    OB_ENSURE(++attempts <= max_attempts,
              "generate_dataset: too many infeasible workloads");
    const std::size_t n = static_cast<std::size_t>(
        rng.range(static_cast<std::int64_t>(kMinMix),
                  static_cast<std::int64_t>(kMaxMix)));
    const workload::Workload w = workload::random_mix(rng, n);
    const sim::Mapping mapping =
        workload::random_mapping(rng, zoo, w, sim::kStageLimit);

    const sim::ThroughputReport report =
        board.simulate(w.resolve(zoo), mapping);
    if (!report.feasible) continue;  // unrunnable on the physical board

    set.inputs.push_back(embedding.masked_input(w, mapping));
    set.targets.push_back({report.per_component_rate[0],
                           report.per_component_rate[1],
                           report.per_component_rate[2]});
  }
  return set;
}

SampleSet generate_dataset(const sim::NetworkList& nets,
                           const EmbeddingTensor& embedding,
                           const sim::DesSimulator& board,
                           const DatasetConfig& config) {
  OB_REQUIRE(config.samples > 0, "generate_dataset: zero samples");
  OB_REQUIRE(!nets.empty(), "generate_dataset: empty catalog");
  const std::size_t max_mix = std::min(kMaxMix, nets.size());
  OB_REQUIRE(embedding.models_dim() == nets.size(),
             "generate_dataset: embedding/catalog dimension mismatch");

  std::vector<std::size_t> all_indices(nets.size());
  std::iota(all_indices.begin(), all_indices.end(), 0);

  // One candidate draw from \p rng: mix size, distinct catalog indices
  // (partial Fisher-Yates), per-DNN random stage assignments.
  const auto draw_candidate = [&](util::Rng& rng, sim::NetworkList& mix_nets,
                                  std::vector<std::size_t>& indices,
                                  sim::Mapping& mapping) {
    const std::size_t n = static_cast<std::size_t>(
        rng.range(static_cast<std::int64_t>(kMinMix),
                  static_cast<std::int64_t>(max_mix)));
    indices = all_indices;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = i + rng.below(indices.size() - i);
      std::swap(indices[i], indices[j]);
    }
    indices.resize(n);

    mix_nets.clear();
    std::vector<sim::Assignment> per_dnn;
    mix_nets.reserve(n);
    per_dnn.reserve(n);
    for (const std::size_t idx : indices) {
      mix_nets.push_back(nets[idx]);
      per_dnn.push_back(workload::random_assignment(
          rng, nets[idx]->num_layers(), sim::kStageLimit));
    }
    mapping = sim::Mapping(std::move(per_dnn));
  };

  if (config.workers >= 1) {
    return run_parallel_pipeline(
        board, config,
        [&](util::Rng& rng, const sim::DesSimulator& sim, Sample& out) {
          sim::NetworkList mix_nets;
          std::vector<std::size_t> indices;
          sim::Mapping mapping;
          draw_candidate(rng, mix_nets, indices, mapping);
          const sim::ThroughputReport report = sim.simulate(mix_nets, mapping);
          if (!report.feasible) return false;
          out.input = embedding.masked_input(indices, mapping);
          out.target = {report.per_component_rate[0],
                        report.per_component_rate[1],
                        report.per_component_rate[2]};
          return true;
        });
  }

  // workers == 0: original single-stream order (bit-frozen, see above).
  util::Rng rng(config.seed);
  SampleSet set;
  set.inputs.reserve(config.samples);
  set.targets.reserve(config.samples);

  std::size_t attempts = 0;
  const std::size_t max_attempts = config.samples * 20;
  while (set.size() < config.samples) {
    OB_ENSURE(++attempts <= max_attempts,
              "generate_dataset: too many infeasible workloads");
    sim::NetworkList mix_nets;
    std::vector<std::size_t> indices;
    sim::Mapping mapping;
    draw_candidate(rng, mix_nets, indices, mapping);

    const sim::ThroughputReport report = board.simulate(mix_nets, mapping);
    if (!report.feasible) continue;  // unrunnable on the physical board

    set.inputs.push_back(embedding.masked_input(indices, mapping));
    set.targets.push_back({report.per_component_rate[0],
                           report.per_component_rate[1],
                           report.per_component_rate[2]});
  }
  return set;
}

}  // namespace omniboost::core

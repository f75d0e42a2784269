#include "sched/ga.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "util/require.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace omniboost::sched {

using device::ComponentId;
using device::kNumComponents;

namespace {

/// Flattened chromosome: all DNNs' layer assignments back to back.
struct Chromosome {
  std::vector<ComponentId> genes;
  double fitness = -std::numeric_limits<double>::infinity();
};

}  // namespace

GaScheduler::GaScheduler(const models::ModelZoo& zoo,
                         const device::DeviceSpec& device, GaConfig config)
    : zoo_(&zoo), board_(device), config_(config) {
  OB_REQUIRE(config_.population >= 4, "GaScheduler: population too small");
  OB_REQUIRE(config_.elitism < config_.population,
             "GaScheduler: elitism must leave room for offspring");
  OB_REQUIRE(config_.tournament >= 1, "GaScheduler: bad tournament size");
}

void GaScheduler::repair_stages(sim::Assignment& a, std::size_t max_stages) {
  OB_REQUIRE(max_stages >= 1, "repair_stages: bad limit");
  for (;;) {
    auto segs = sim::extract_segments(a);
    if (segs.size() <= max_stages) return;
    // Find the shortest segment and absorb it into a neighbour (prefer the
    // one whose component differs least often — here simply the longer one,
    // so the merge destroys as little structure as possible).
    std::size_t victim = 0;
    std::size_t victim_len = std::numeric_limits<std::size_t>::max();
    for (std::size_t s = 0; s < segs.size(); ++s) {
      const std::size_t len = segs[s].last - segs[s].first + 1;
      if (len < victim_len) {
        victim_len = len;
        victim = s;
      }
    }
    ComponentId absorb;
    if (victim == 0) {
      absorb = segs[1].comp;
    } else if (victim + 1 == segs.size()) {
      absorb = segs[victim - 1].comp;
    } else {
      const std::size_t left_len =
          segs[victim - 1].last - segs[victim - 1].first + 1;
      const std::size_t right_len =
          segs[victim + 1].last - segs[victim + 1].first + 1;
      absorb = left_len >= right_len ? segs[victim - 1].comp
                                     : segs[victim + 1].comp;
    }
    for (std::size_t l = segs[victim].first; l <= segs[victim].last; ++l)
      a[l] = absorb;
  }
}

core::ScheduleResult GaScheduler::schedule(const workload::Workload& w) {
  const auto start = std::chrono::steady_clock::now();
  util::Rng rng(config_.seed);

  const sim::NetworkList nets = w.resolve(*zoo_);
  const std::vector<std::size_t> counts = w.layer_counts(*zoo_);
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;

  core::ScheduleResult result;

  const auto unflatten = [&](const std::vector<ComponentId>& genes) {
    std::vector<sim::Assignment> per_dnn;
    per_dnn.reserve(counts.size());
    std::size_t off = 0;
    for (std::size_t c : counts) {
      sim::Assignment a(genes.begin() + static_cast<std::ptrdiff_t>(off),
                        genes.begin() + static_cast<std::ptrdiff_t>(off + c));
      repair_stages(a, config_.max_stages);
      per_dnn.push_back(std::move(a));
      off += c;
    }
    return sim::Mapping(std::move(per_dnn));
  };

  const auto evaluate = [&](Chromosome& ch) {
    const sim::Mapping m = unflatten(ch.genes);
    // One short on-board measurement: true throughput plus sampling noise.
    const double measured = board_.simulate(nets, m).avg_throughput;
    ch.fitness =
        measured * std::max(0.0, 1.0 + config_.fitness_noise * rng.normal());
    ++result.evaluations;
    result.board_seconds += config_.board_seconds_per_eval;
  };

  // --- Initial population: random stage-limited mappings.
  std::vector<Chromosome> pop(config_.population);
  for (Chromosome& ch : pop) {
    ch.genes.reserve(total);
    for (std::size_t c : counts) {
      const sim::Assignment a =
          workload::random_assignment(rng, c, config_.max_stages);
      ch.genes.insert(ch.genes.end(), a.begin(), a.end());
    }
    evaluate(ch);
  }

  const auto tournament_pick = [&]() -> const Chromosome& {
    const Chromosome* best = &pop[rng.below(pop.size())];
    for (std::size_t k = 1; k < config_.tournament; ++k) {
      const Chromosome& cand = pop[rng.below(pop.size())];
      if (cand.fitness > best->fitness) best = &cand;
    }
    return *best;
  };

  // --- Evolution loop ("retraining" per queried workload).
  for (std::size_t gen = 0; gen < config_.generations; ++gen) {
    std::sort(pop.begin(), pop.end(),
              [](const Chromosome& a, const Chromosome& b) {
                return a.fitness > b.fitness;
              });
    std::vector<Chromosome> next;
    next.reserve(pop.size());
    for (std::size_t e = 0; e < config_.elitism; ++e) next.push_back(pop[e]);

    while (next.size() < pop.size()) {
      Chromosome child;
      const Chromosome& pa = tournament_pick();
      const Chromosome& pb = tournament_pick();
      child.genes = pa.genes;
      if (rng.chance(config_.crossover_rate) && total > 1) {
        // One-point crossover; the cut may fall inside a DNN, creating the
        // extra pipeline stages the paper says damage elite chromosomes —
        // repaired by the merge layer inside unflatten().
        const std::size_t cut =
            1 + static_cast<std::size_t>(rng.below(total - 1));
        for (std::size_t g = cut; g < total; ++g)
          child.genes[g] = pb.genes[g];
      }
      for (std::size_t g = 0; g < total; ++g) {
        if (rng.chance(config_.mutation_rate))
          child.genes[g] = static_cast<ComponentId>(rng.below(kNumComponents));
      }
      evaluate(child);
      next.push_back(std::move(child));
    }
    pop = std::move(next);
  }

  const auto& best = *std::max_element(
      pop.begin(), pop.end(), [](const Chromosome& a, const Chromosome& b) {
        return a.fitness < b.fitness;
      });
  result.mapping = unflatten(best.genes);
  result.expected_reward = best.fitness;
  result.decision_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace omniboost::sched

#include "sched/mosaic.hpp"

#include <algorithm>
#include <cmath>
#include <chrono>
#include <cstdint>
#include <limits>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace omniboost::sched {

using device::ComponentId;
using device::kNumComponents;

std::array<double, LinearLatencyModel::kFeatures> LinearLatencyModel::features(
    const models::LayerDesc& l) {
  // Fixed scaling keeps the normal equations well conditioned.
  return {l.flops() / 1e9,
          l.traffic_bytes() / 1e8,
          static_cast<double>(l.input.count()) / 1e6,
          static_cast<double>(l.output.count()) / 1e6,
          l.weight_bytes / 1e8,
          1.0};
}

double LinearLatencyModel::predict(const models::LayerDesc& l) const {
  const auto x = features(l);
  double y = 0.0;
  for (std::size_t i = 0; i < kFeatures; ++i) y += weights[i] * x[i];
  return std::max(y, 1e-7);  // latencies cannot be negative
}

namespace {

constexpr double kMeasurementNoise = 0.05;  ///< relative jitter of board timings
constexpr std::size_t kDataPoints = 14'000;  ///< board measurements fitted
constexpr std::uint64_t kSeed = 97;          ///< seeds the measurement jitter

/// Solves the 6x6 normal equations A w = b (Gaussian elimination with
/// partial pivoting; A is SPD up to noise so this is ample).
std::array<double, LinearLatencyModel::kFeatures> solve_normal_equations(
    std::array<std::array<double, 6>, 6> a, std::array<double, 6> b) {
  constexpr std::size_t n = 6;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r)
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    OB_ENSURE(std::fabs(a[col][col]) > 1e-12,
              "MOSAIC fit: singular normal equations");
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r][col] / a[col][col];
      for (std::size_t c = col; c < n; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  std::array<double, n> w{};
  for (std::size_t row = n; row-- > 0;) {
    double s = b[row];
    for (std::size_t c = row + 1; c < n; ++c) s -= a[row][c] * w[c];
    w[row] = s / a[row][row];
  }
  return w;
}

}  // namespace

MosaicScheduler::MosaicScheduler(const models::ModelZoo& zoo,
                                 const device::DeviceSpec& device)
    : zoo_(&zoo), device_(device) {
  // --- Offline data collection: repeated noisy layer measurements on every
  // component, round-robin over the zoo until the data-point budget is hit.
  const device::CostModel cost(device_);
  util::Rng rng(kSeed);

  struct Accum {
    std::array<std::array<double, 6>, 6> xtx{};
    std::array<double, 6> xty{};
  };
  std::array<Accum, kNumComponents> acc;

  std::size_t collected = 0;
  while (collected < kDataPoints) {
    for (const models::NetworkDesc& net : zoo_->networks()) {
      for (const models::LayerDesc& layer : net.layers) {
        for (std::size_t c = 0; c < kNumComponents; ++c) {
          if (collected >= kDataPoints) break;
          const auto comp = static_cast<ComponentId>(c);
          const double t = cost.layer_time(layer, comp) *
                           (1.0 + kMeasurementNoise * rng.normal());
          training_board_seconds_ += std::max(t, 0.0);
          const auto x = LinearLatencyModel::features(layer);
          for (std::size_t i = 0; i < 6; ++i) {
            for (std::size_t j = 0; j < 6; ++j)
              acc[c].xtx[i][j] += x[i] * x[j];
            acc[c].xty[i] += x[i] * std::max(t, 0.0);
          }
          ++collected;
        }
      }
    }
  }
  training_samples_ = collected;
  for (std::size_t c = 0; c < kNumComponents; ++c)
    model_[c].weights = solve_normal_equations(acc[c].xtx, acc[c].xty);
}

sim::Assignment MosaicScheduler::slice_network(
    const models::NetworkDesc& net,
    std::array<double, kNumComponents>& loads) const {
  const std::size_t n = net.num_layers();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double link_bw = device_.link.bandwidth_gbps * 1e9;

  // Prefix sums of predicted layer latency per component: pre[c][l] = sum of
  // layers [0, l).
  std::array<std::vector<double>, kNumComponents> pre;
  for (std::size_t c = 0; c < kNumComponents; ++c) {
    pre[c].assign(n + 1, 0.0);
    for (std::size_t l = 0; l < n; ++l)
      pre[c][l + 1] = pre[c][l] + model_[c].predict(net.layers[l]);
  }
  const auto range_time = [&](std::size_t c, std::size_t first,
                              std::size_t last) {  // [first, last)
    return pre[c][last] - pre[c][first];
  };
  const auto transfer_after = [&](std::size_t layer) {
    return device_.link.latency_s +
           net.layers[layer].output_bytes() / link_bw;
  };

  // Candidate score: bottleneck of the running per-component loads after
  // adding this slicing, plus communication time.
  double best_score = kInf;
  std::array<double, kNumComponents> best_add{};
  sim::Assignment best(n, ComponentId::kGpu);

  const auto consider = [&](const std::vector<std::size_t>& cuts,
                            const std::vector<std::size_t>& comps) {
    std::array<double, kNumComponents> add{};
    double comm = 0.0;
    std::size_t first = 0;
    for (std::size_t s = 0; s < comps.size(); ++s) {
      const std::size_t last = s + 1 < comps.size() ? cuts[s] : n;
      add[comps[s]] += range_time(comps[s], first, last);
      if (s + 1 < comps.size()) comm += transfer_after(last - 1);
      first = last;
    }
    double bottleneck = 0.0;
    for (std::size_t c = 0; c < kNumComponents; ++c)
      bottleneck = std::max(bottleneck, loads[c] + add[c]);
    const double score = bottleneck + comm;
    if (score < best_score) {
      best_score = score;
      best_add = add;
      std::size_t b = 0;
      for (std::size_t s = 0; s < comps.size(); ++s) {
        const std::size_t last = s + 1 < comps.size() ? cuts[s] : n;
        for (std::size_t l = b; l < last; ++l)
          best[l] = static_cast<ComponentId>(comps[s]);
        b = last;
      }
    }
  };

  // 1-stage placements.
  for (std::size_t c = 0; c < kNumComponents; ++c) consider({}, {c});
  // 2-stage placements.
  if (n >= 2) {
    for (std::size_t cut = 1; cut < n; ++cut)
      for (std::size_t a = 0; a < kNumComponents; ++a)
        for (std::size_t b = 0; b < kNumComponents; ++b)
          if (a != b) consider({cut}, {a, b});
  }
  // 3-stage placements.
  if (n >= 3) {
    for (std::size_t cut1 = 1; cut1 + 1 < n; ++cut1)
      for (std::size_t cut2 = cut1 + 1; cut2 < n; ++cut2)
        for (std::size_t a = 0; a < kNumComponents; ++a)
          for (std::size_t b = 0; b < kNumComponents; ++b)
            for (std::size_t c = 0; c < kNumComponents; ++c)
              if (a != b && b != c) consider({cut1, cut2}, {a, b, c});
  }

  OB_ENSURE(best_score < kInf, "MOSAIC slicing: no feasible plan");
  for (std::size_t c = 0; c < kNumComponents; ++c) loads[c] += best_add[c];
  return best;
}

core::ScheduleResult MosaicScheduler::schedule(const workload::Workload& w) {
  const auto start = std::chrono::steady_clock::now();
  core::ScheduleResult r;
  std::array<double, kNumComponents> loads{};
  std::vector<sim::Assignment> per_dnn;
  per_dnn.reserve(w.size());
  for (models::ModelId id : w.mix) {
    per_dnn.push_back(slice_network(zoo_->network(id), loads));
    ++r.evaluations;  // one regression query per DNN
  }
  r.mapping = sim::Mapping(std::move(per_dnn));
  r.decision_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return r;
}

}  // namespace omniboost::sched

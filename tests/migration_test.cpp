// sim::MigrationCostModel and the DES start-delay overloads:
//  * assess() arithmetic: moved-layer weight bytes over the upload link plus
//    a per-migrated-segment overhead, per surviving stream
//  * new streams (carried_from < 0) and identical mappings are free
//  * DES: empty/zero start delays are bit-identical to the plain simulate(),
//    positive delays only lower measured throughput, and a delay past the
//    horizon starves the stream to zero

#include <gtest/gtest.h>

#include <vector>

#include "models/zoo.hpp"
#include "sim/des.hpp"
#include "sim/migration.hpp"
#include "workload/workload.hpp"

namespace {

using namespace omniboost;
using models::ModelId;

constexpr auto G = device::ComponentId::kGpu;
constexpr auto B = device::ComponentId::kBigCpu;
constexpr auto L = device::ComponentId::kLittleCpu;

const models::ModelZoo& zoo() {
  static const models::ModelZoo z;
  return z;
}

const device::DeviceSpec& spec() {
  static const device::DeviceSpec s = device::make_hikey970();
  return s;
}

const sim::DesSimulator& board() {
  static const sim::DesSimulator b(spec());
  return b;
}

TEST(MigrationCostModel, ChargesMovedWeightBytesAndSegmentOverheads) {
  const models::NetworkDesc& alex = zoo().network(ModelId::kAlexNet);
  const std::size_t n = alex.num_layers();
  ASSERT_GE(n, 4u);

  const workload::Workload w{{ModelId::kAlexNet}};
  const sim::NetworkList nets = w.resolve(zoo());

  // Previous: all on GPU. Next: first layer to LITTLE, last layer to big —
  // two moved layers in two distinct (new-pipeline) segments.
  sim::Assignment prev_a(n, G);
  sim::Assignment next_a(n, G);
  next_a[0] = L;
  next_a[n - 1] = B;
  const sim::Mapping prev({prev_a});
  const sim::Mapping next({next_a});

  sim::MigrationCostConfig cfg;
  cfg.enabled = true;
  cfg.scale = 2.0;
  const sim::MigrationCostModel model(spec(), cfg);
  const sim::MigrationStats stats = model.assess(nets, prev, {0}, next);

  const double bytes =
      alex.layers[0].weight_bytes + alex.layers[n - 1].weight_bytes;
  const double expected =
      cfg.scale * (bytes / (spec().link.bandwidth_gbps * 1e9) +
                   2.0 * sim::kMigrationSegmentOverheadS);
  EXPECT_EQ(stats.moved_layers, 2u);
  EXPECT_EQ(stats.migrated_segments, 2u);
  EXPECT_DOUBLE_EQ(stats.moved_weight_bytes, bytes);
  ASSERT_EQ(stats.stream_delay_s.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.stream_delay_s[0], expected);
  EXPECT_DOUBLE_EQ(stats.total_delay_s, expected);
  EXPECT_DOUBLE_EQ(stats.max_delay_s, expected);

  // Weights upload over the device link: a faster link stalls less.
  device::DeviceSpec fast = spec();
  fast.link.bandwidth_gbps *= 10.0;
  const sim::MigrationStats faster =
      sim::MigrationCostModel(fast, cfg).assess(nets, prev, {0}, next);
  EXPECT_LT(faster.total_delay_s, stats.total_delay_s);
}

TEST(MigrationCostModel, PartiallyMovedSegmentChargesOneOverhead) {
  const models::NetworkDesc& alex = zoo().network(ModelId::kAlexNet);
  const std::size_t n = alex.num_layers();
  const workload::Workload w{{ModelId::kAlexNet}};
  const sim::NetworkList nets = w.resolve(zoo());

  // Two adjacent moved layers that end up INSIDE one new segment: one
  // segment overhead, two layers' weights.
  sim::Assignment prev_a(n, G);
  prev_a[1] = B;
  prev_a[2] = B;
  sim::Assignment next_a(n, G);  // segment [0..n-1] on GPU
  sim::MigrationCostConfig one_overhead;
  one_overhead.enabled = true;
  const sim::MigrationCostModel model(spec(), one_overhead);
  const sim::MigrationStats stats =
      model.assess(nets, sim::Mapping({prev_a}), {0},
                   sim::Mapping({next_a}));
  EXPECT_EQ(stats.moved_layers, 2u);
  EXPECT_EQ(stats.migrated_segments, 1u);
  EXPECT_DOUBLE_EQ(stats.moved_weight_bytes,
                   alex.layers[1].weight_bytes + alex.layers[2].weight_bytes);
}

TEST(MigrationCostModel, NewStreamsIdenticalMappingsAndFullReplacementAreFree) {
  const std::size_t alex_n = zoo().network(ModelId::kAlexNet).num_layers();
  const std::size_t mob_n = zoo().network(ModelId::kMobileNet).num_layers();
  sim::MigrationCostConfig enabled;
  enabled.enabled = true;
  const sim::MigrationCostModel model(spec(), enabled);

  // Surviving stream unchanged + a brand-new stream: nothing to charge.
  const workload::Workload w2{{ModelId::kAlexNet, ModelId::kMobileNet}};
  const sim::Mapping prev({sim::Assignment(alex_n, G)});
  const sim::Mapping next(
      {sim::Assignment(alex_n, G), sim::Assignment(mob_n, B)});
  const sim::MigrationStats unchanged =
      model.assess(w2.resolve(zoo()), prev, {0, -1}, next);
  EXPECT_EQ(unchanged.moved_layers, 0u);
  EXPECT_EQ(unchanged.migrated_segments, 0u);
  EXPECT_DOUBLE_EQ(unchanged.total_delay_s, 0.0);
  EXPECT_DOUBLE_EQ(unchanged.stream_delay_s[0], 0.0);
  EXPECT_DOUBLE_EQ(unchanged.stream_delay_s[1], 0.0);

  // Full-replacement epoch: every stream is new — free by definition even
  // though the previous mapping was completely different.
  const workload::Workload w1{{ModelId::kMobileNet}};
  const sim::MigrationStats replaced = model.assess(
      w1.resolve(zoo()), sim::Mapping({sim::Assignment(alex_n, B)}), {-1},
      sim::Mapping({sim::Assignment(mob_n, L)}));
  EXPECT_EQ(replaced.moved_layers, 0u);
  EXPECT_DOUBLE_EQ(replaced.total_delay_s, 0.0);
}

TEST(MigrationCostModel, ZeroBandwidthBoardIsLegalOnlyWhileDisabled) {
  // The serving runtime builds a (usually disabled) model for every board
  // unconditionally, and profiles may legally declare a zero-bandwidth
  // link — only charging migrations on one is an error.
  device::DeviceSpec no_link = spec();
  no_link.link.bandwidth_gbps = 0.0;
  const sim::MigrationCostModel disabled(no_link, {});  // fine

  sim::MigrationCostConfig on;
  on.enabled = true;
  EXPECT_THROW(sim::MigrationCostModel(no_link, on), std::invalid_argument);

  // Assessing the disabled model on such a board is diagnosed, not inf.
  const std::size_t n = zoo().network(ModelId::kAlexNet).num_layers();
  const workload::Workload w{{ModelId::kAlexNet}};
  const sim::Mapping prev({sim::Assignment(n, G)});
  sim::Assignment moved(n, G);
  moved[0] = B;
  EXPECT_THROW(
      disabled.assess(w.resolve(zoo()), prev, {0}, sim::Mapping({moved})),
      std::invalid_argument);
}

TEST(DesStartDelays, EmptyAndZeroDelaysAreBitIdenticalToPlainSimulate) {
  const workload::Workload w{{ModelId::kAlexNet, ModelId::kMobileNet}};
  const sim::NetworkList nets = w.resolve(zoo());
  const sim::Mapping m = sim::Mapping::all_on(w.layer_counts(zoo()), G);

  const sim::ThroughputReport plain = board().simulate(nets, m);
  const sim::ThroughputReport empty = board().simulate(nets, m, {});
  const sim::ThroughputReport zeros =
      board().simulate(nets, m, std::vector<double>{0.0, 0.0});
  for (const sim::ThroughputReport* r : {&empty, &zeros}) {
    EXPECT_EQ(plain.avg_throughput, r->avg_throughput);
    EXPECT_EQ(plain.per_dnn_rate, r->per_dnn_rate);
    EXPECT_EQ(plain.dram_demand_gbps, r->dram_demand_gbps);
  }
}

TEST(DesStartDelays, DelaysOnlyLowerMeasuredThroughput) {
  const workload::Workload w{{ModelId::kAlexNet, ModelId::kSqueezeNet}};
  const sim::NetworkList nets = w.resolve(zoo());
  const sim::Mapping m = sim::Mapping::all_on(w.layer_counts(zoo()), G);

  const sim::ThroughputReport plain = board().simulate(nets, m);
  ASSERT_GT(plain.avg_throughput, 0.0);

  // Stall stream 0 for a visible slice of the horizon: it completes fewer
  // frames in the unchanged window, so measured T (the slowest stream under
  // the synchronized window) cannot rise.
  const sim::ThroughputReport stalled =
      board().simulate(nets, m, std::vector<double>{0.5, 0.0});
  EXPECT_LT(stalled.per_dnn_rate[0], plain.per_dnn_rate[0]);
  EXPECT_LE(stalled.avg_throughput, plain.avg_throughput);

  // A delay past the horizon starves the stream completely.
  const sim::ThroughputReport starved =
      board().simulate(nets, m, std::vector<double>{1e9, 0.0});
  EXPECT_EQ(starved.per_dnn_rate[0], 0.0);
  EXPECT_EQ(starved.avg_throughput, 0.0);

  // Bad delay vectors are rejected.
  EXPECT_THROW(board().simulate(nets, m, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(board().simulate(nets, m, std::vector<double>{-1.0, 0.0}),
               std::invalid_argument);
}

TEST(DesStartDelays, StallChargesThroughputButNotPerFrameLatency) {
  // The one-off stall is charged against the measured rate (absent fraction
  // of the window); it is NOT per-frame latency, so the latency
  // distribution — what SLO checks compare — must be bit-identical to the
  // undelayed run.
  const workload::Workload w{{ModelId::kAlexNet}};
  const sim::NetworkList nets = w.resolve(zoo());
  const sim::Mapping m = sim::Mapping::all_on(w.layer_counts(zoo()), G);

  const auto plain = board().simulate_traced(nets, m);
  const auto delayed =
      board().simulate_traced(nets, m, std::vector<double>{0.05});
  ASSERT_GT(plain.trace.per_dnn_latency[0].samples, 0u);
  EXPECT_EQ(delayed.trace.per_dnn_latency[0].samples,
            plain.trace.per_dnn_latency[0].samples);
  EXPECT_EQ(delayed.trace.per_dnn_latency[0].p99,
            plain.trace.per_dnn_latency[0].p99);
  EXPECT_EQ(delayed.trace.per_dnn_latency[0].max,
            plain.trace.per_dnn_latency[0].max);
  // Exact charge: rate scales by the present fraction of the window.
  const double window =
      plain.trace.horizon_seconds - plain.trace.warmup_seconds;
  EXPECT_DOUBLE_EQ(
      delayed.report.per_dnn_rate[0],
      plain.report.per_dnn_rate[0] * (window - 0.05) / window);
}

}  // namespace

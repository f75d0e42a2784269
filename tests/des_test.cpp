// The discrete-event board simulator: solo rates, pipelining, contention,
// the DRAM wall and the out-of-memory condition.

#include <gtest/gtest.h>

#include "device/cost_model.hpp"
#include "models/zoo.hpp"
#include "sim/des.hpp"

namespace {

using namespace omniboost::sim;
using omniboost::device::ComponentId;
using omniboost::device::DeviceSpec;
using omniboost::device::make_hikey970;
using omniboost::models::ModelId;
using omniboost::models::ModelZoo;

constexpr auto G = ComponentId::kGpu;
constexpr auto B = ComponentId::kBigCpu;
constexpr auto L = ComponentId::kLittleCpu;

class DesTest : public ::testing::Test {
 protected:
  const ModelZoo& zoo() {
    static const ModelZoo z;
    return z;
  }
  NetworkList nets(std::initializer_list<ModelId> ids) {
    NetworkList n;
    for (ModelId id : ids) n.push_back(&zoo().network(id));
    return n;
  }
  std::vector<std::size_t> counts(std::initializer_list<ModelId> ids) {
    std::vector<std::size_t> c;
    for (ModelId id : ids) c.push_back(zoo().network(id).num_layers());
    return c;
  }

  DeviceSpec device_ = make_hikey970();
  DesSimulator sim_{device_};
};

TEST_F(DesTest, SoloRateMatchesServiceTime) {
  const auto n = nets({ModelId::kAlexNet});
  const auto m = Mapping::all_on(counts({ModelId::kAlexNet}), G);
  const ThroughputReport r = sim_.simulate(n, m);
  ASSERT_TRUE(r.feasible);
  // Single stream, single stage: rate ~= 1 / service time.
  omniboost::device::CostModel cost(device_);
  const double base =
      cost.segment_time(*n[0], 0, n[0]->num_layers() - 1, G) +
      device_.per_inference_overhead_s;
  EXPECT_NEAR(r.per_dnn_rate[0] * base, 1.0, 0.1);
}

TEST_F(DesTest, ReportInvariants) {
  const auto ids = {ModelId::kAlexNet, ModelId::kMobileNet};
  const ThroughputReport r = sim_.simulate(nets(ids), Mapping::all_on(counts(ids), G));
  ASSERT_TRUE(r.feasible);
  ASSERT_EQ(r.per_dnn_rate.size(), 2u);
  double slowest = r.per_dnn_rate[0];
  for (double x : r.per_dnn_rate) {
    EXPECT_GT(x, 0.0);
    slowest = std::min(slowest, x);
  }
  // Synchronized window: T equals the slowest stream's free-running rate.
  EXPECT_NEAR(r.avg_throughput, slowest, 1e-9);
  EXPECT_GE(r.free_running_avg, r.avg_throughput);
  // Component flows sum to M * T.
  const double flow = r.per_component_rate[0] + r.per_component_rate[1] +
                      r.per_component_rate[2];
  EXPECT_NEAR(flow, 2.0 * r.avg_throughput, 2.0 * r.avg_throughput * 0.02);
}

TEST_F(DesTest, ComponentFlowFollowsPlacement) {
  const auto ids = {ModelId::kSqueezeNet};
  const ThroughputReport r =
      sim_.simulate(nets(ids), Mapping::all_on(counts(ids), B));
  EXPECT_EQ(r.per_component_rate[0], 0.0);
  EXPECT_GT(r.per_component_rate[1], 0.0);
  EXPECT_EQ(r.per_component_rate[2], 0.0);
}

TEST_F(DesTest, ContentionHalvesCoLocatedStreams) {
  // Two identical streams on one component should each run at about half
  // their solo rate (plus working-set effects kept below threshold here).
  const auto one = nets({ModelId::kSqueezeNet});
  const auto two = nets({ModelId::kSqueezeNet, ModelId::kSqueezeNet});
  const double solo =
      sim_.simulate(one, Mapping::all_on(counts({ModelId::kSqueezeNet}), B))
          .per_dnn_rate[0];
  const ThroughputReport r = sim_.simulate(
      two, Mapping::all_on(
               counts({ModelId::kSqueezeNet, ModelId::kSqueezeNet}), B));
  EXPECT_NEAR(r.per_dnn_rate[0], solo / 2.0, solo * 0.12);
  EXPECT_NEAR(r.per_dnn_rate[1], solo / 2.0, solo * 0.12);
}

TEST_F(DesTest, DistributionBeatsGpuOnlyOnHeavyMix) {
  // The paper's core phenomenon: a heavy 4-mix collapses the GPU, while
  // spreading the workload across components boosts average throughput.
  const auto ids = {ModelId::kVgg19, ModelId::kResNet101,
                    ModelId::kInceptionV4, ModelId::kVgg16};
  const auto n = nets(ids);
  const auto c = counts(ids);
  const double gpu_only = sim_.simulate(n, Mapping::all_on(c, G)).avg_throughput;
  // Balanced distribution: keep the GPU for the heavy GEMM nets and move
  // ResNet-101 + VGG-16 to the big cluster (the LITTLE cluster would become
  // the synchronized window's bottleneck).
  std::vector<Assignment> spread;
  spread.emplace_back(c[0], G);
  spread.emplace_back(c[1], B);
  spread.emplace_back(c[2], G);
  spread.emplace_back(c[3], B);
  const double distributed =
      sim_.simulate(n, Mapping(std::move(spread))).avg_throughput;
  EXPECT_GT(distributed, 1.3 * gpu_only);
}

TEST_F(DesTest, WorkingSetPenaltyGrowsWithResidency) {
  const auto ids4 = {ModelId::kVgg19, ModelId::kResNet101,
                     ModelId::kInceptionV4, ModelId::kVgg16};
  const auto r4 =
      sim_.simulate(nets(ids4), Mapping::all_on(counts(ids4), G));
  const auto ids1 = {ModelId::kVgg19};
  const auto r1 = sim_.simulate(nets(ids1), Mapping::all_on(counts(ids1), G));
  EXPECT_GT(r4.component_penalty[0], r1.component_penalty[0]);
  EXPECT_GE(r1.component_penalty[0], 1.0);
}

TEST_F(DesTest, PipelineOverlapBeatsSerialWhenBalanced) {
  // One stream split across GPU and big CPU can pipeline: its rate should
  // exceed what the slower of the two stages alone would sustain in series.
  const auto ids = {ModelId::kVgg16};
  const auto n = nets(ids);
  const std::size_t cnt = n[0]->num_layers();
  // Find a split point that balances GPU/big times reasonably.
  omniboost::device::CostModel cost(device_);
  std::size_t cut = cnt / 2;
  double best_gap = 1e9;
  for (std::size_t k = 2; k + 2 < cnt; ++k) {
    const double a = cost.segment_time(*n[0], 0, k - 1, G);
    const double b = cost.segment_time(*n[0], k, cnt - 1, B);
    if (std::abs(a - b) < best_gap) {
      best_gap = std::abs(a - b);
      cut = k;
    }
  }
  Assignment split(cnt, G);
  for (std::size_t l = cut; l < cnt; ++l) split[l] = B;
  const double piped =
      sim_.simulate(n, Mapping({split})).per_dnn_rate[0];
  const double serial_time =
      cost.segment_time(*n[0], 0, cut - 1, G) +
      cost.segment_time(*n[0], cut, cnt - 1, B) +
      device_.per_inference_overhead_s;
  EXPECT_GT(piped, 1.0 / serial_time);
}

TEST_F(DesTest, SixHeavyDnnsAreInfeasible) {
  // §V: mixes of 6 concurrent DNNs made the board unresponsive.
  const auto ids = {ModelId::kVgg19, ModelId::kVgg16, ModelId::kVgg13,
                    ModelId::kResNet101, ModelId::kInceptionV4,
                    ModelId::kInceptionV3};
  const ThroughputReport r =
      sim_.simulate(nets(ids), Mapping::all_on(counts(ids), G));
  EXPECT_FALSE(r.feasible);
  for (double x : r.per_dnn_rate) EXPECT_EQ(x, 0.0);
}

TEST_F(DesTest, DramWallScalesRatesDown) {
  // Force a tiny DRAM cap and check the wall engages and rescales.
  DeviceSpec starved = device_;
  starved.dram_bw_gbps = 0.4;
  DesSimulator sim(starved);
  const auto ids = {ModelId::kMobileNet, ModelId::kSqueezeNet};
  std::vector<Assignment> spread;
  spread.emplace_back(zoo().network(ModelId::kMobileNet).num_layers(), B);
  spread.emplace_back(zoo().network(ModelId::kSqueezeNet).num_layers(), G);
  const ThroughputReport r = sim.simulate(nets(ids), Mapping(std::move(spread)));
  EXPECT_LT(r.dram_scale, 1.0);
  EXPECT_GT(r.dram_demand_gbps, 0.4);
}

TEST_F(DesTest, DeterministicAcrossRuns) {
  const auto ids = {ModelId::kAlexNet, ModelId::kResNet34};
  const auto m = Mapping::all_on(counts(ids), G);
  const auto a = sim_.simulate(nets(ids), m);
  const auto b = sim_.simulate(nets(ids), m);
  EXPECT_EQ(a.per_dnn_rate, b.per_dnn_rate);
}

TEST_F(DesTest, RejectsMalformedInput) {
  EXPECT_THROW(sim_.simulate({}, Mapping({{G}})), std::invalid_argument);
  const auto ids = {ModelId::kAlexNet};
  EXPECT_THROW(sim_.simulate(nets(ids), Mapping({{G, G}})),
               std::invalid_argument);  // wrong layer count
  EXPECT_THROW(sim_.simulate({nullptr}, Mapping({{G}})),
               std::invalid_argument);
}

}  // namespace

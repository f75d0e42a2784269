// Simulator observability: component utilization, queue pressure, frame
// latency percentiles, and the conservation laws tying them to the
// throughput measurement.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>

#include "models/zoo.hpp"
#include "sim/des.hpp"
#include "sim/gantt.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace {

using namespace omniboost;
using models::ModelId;
using models::ModelZoo;
using sim::ComponentId;
using sim::LatencyStats;
using workload::Workload;

const ModelZoo& zoo() {
  static const ModelZoo z;
  return z;
}

const device::DeviceSpec& hikey() {
  static const device::DeviceSpec d = device::make_hikey970();
  return d;
}

// --- LatencyStats -----------------------------------------------------------

TEST(LatencyStats, EmptyIsAllZero) {
  const LatencyStats s = LatencyStats::from_samples({});
  EXPECT_EQ(s.samples, 0u);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.max, 0.0);
}

TEST(LatencyStats, SingleSample) {
  const LatencyStats s = LatencyStats::from_samples({0.25});
  EXPECT_EQ(s.samples, 1u);
  EXPECT_EQ(s.min, 0.25);
  EXPECT_EQ(s.p50, 0.25);
  EXPECT_EQ(s.p99, 0.25);
  EXPECT_EQ(s.max, 0.25);
}

TEST(LatencyStats, KnownPercentiles) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  const LatencyStats s = LatencyStats::from_samples(std::move(v));
  EXPECT_EQ(s.samples, 100u);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);  // nearest-rank: ceil(0.5*100) = 50th value
  EXPECT_DOUBLE_EQ(s.p90, 90.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

TEST(LatencyStats, OrderInvariance) {
  const LatencyStats a = LatencyStats::from_samples({3.0, 1.0, 2.0});
  const LatencyStats b = LatencyStats::from_samples({1.0, 2.0, 3.0});
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.mean, b.mean);
}

TEST(LatencyStats, PercentileMonotonicity) {
  util::Rng rng(5);
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(rng.uniform(0.0, 10.0));
  const LatencyStats s = LatencyStats::from_samples(std::move(v));
  EXPECT_LE(s.min, s.p50);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, s.max);
  EXPECT_GE(s.mean, s.min);
  EXPECT_LE(s.mean, s.max);
}

// --- Traced simulation ------------------------------------------------------

class TracedSim : public ::testing::Test {
 protected:
  sim::DesSimulator sim_{hikey()};
};

TEST_F(TracedSim, ReportMatchesUntracedSimulation) {
  // Tracing must be a pure observer: identical throughput measurement.
  const Workload w{{ModelId::kAlexNet, ModelId::kMobileNet}};
  util::Rng rng(7);
  const sim::Mapping m = workload::random_mapping(rng, zoo(), w, 3);
  const auto nets = w.resolve(zoo());

  const auto plain = sim_.simulate(nets, m);
  const auto traced = sim_.simulate_traced(nets, m);
  EXPECT_EQ(plain.avg_throughput, traced.report.avg_throughput);
  EXPECT_EQ(plain.per_dnn_rate, traced.report.per_dnn_rate);
  EXPECT_EQ(plain.dram_scale, traced.report.dram_scale);
}

TEST_F(TracedSim, UtilizationIsAFraction) {
  const Workload w{{ModelId::kVgg16, ModelId::kAlexNet, ModelId::kSqueezeNet}};
  util::Rng rng(13);
  const sim::Mapping m = workload::random_mapping(rng, zoo(), w, 3);
  const auto r = sim_.simulate_traced(w.resolve(zoo()), m);

  ASSERT_TRUE(r.report.feasible);
  double total_busy = 0.0;
  for (const auto& cu : r.trace.components) {
    EXPECT_GE(cu.busy_seconds, 0.0);
    EXPECT_LE(cu.utilization(), 1.0 + 1e-9);
    EXPECT_GT(cu.window_seconds, 0.0);
    total_busy += cu.busy_seconds;
  }
  EXPECT_GT(total_busy, 0.0) << "nobody executed anything";
}

TEST_F(TracedSim, AllOnGpuBusiesOnlyTheGpu) {
  const Workload w{{ModelId::kAlexNet, ModelId::kSqueezeNet}};
  const sim::Mapping m =
      sim::Mapping::all_on(w.layer_counts(zoo()), ComponentId::kGpu);
  const auto r = sim_.simulate_traced(w.resolve(zoo()), m);

  const auto& comps = r.trace.components;
  EXPECT_GT(comps[0].utilization(), 0.5) << "GPU should be heavily loaded";
  EXPECT_EQ(comps[1].busy_seconds, 0.0);
  EXPECT_EQ(comps[2].busy_seconds, 0.0);
  EXPECT_EQ(comps[1].executions, 0u);
  EXPECT_EQ(comps[2].executions, 0u);
}

TEST_F(TracedSim, LatencyBoundsThroughput) {
  // Little's-law-flavoured sanity: a stream's mean frame latency can never
  // be smaller than the inverse of its free-running rate (one frame in
  // flight per stage, so latency * rate <= stages).
  const Workload w{{ModelId::kAlexNet, ModelId::kMobileNet}};
  util::Rng rng(19);
  const sim::Mapping m = workload::random_mapping(rng, zoo(), w, 3);
  const auto r = sim_.simulate_traced(w.resolve(zoo()), m);
  ASSERT_TRUE(r.report.feasible);

  for (std::size_t i = 0; i < 2; ++i) {
    const LatencyStats& lat = r.trace.per_dnn_latency[i];
    ASSERT_GT(lat.samples, 0u) << "stream " << i << " completed nothing";
    // Rates in the report include the DRAM-wall rescale; compare against the
    // raw event-loop rate (rate / dram_scale).
    const double raw_rate = r.report.per_dnn_rate[i] / r.report.dram_scale;
    const double stages = static_cast<double>(m.stages(i));
    EXPECT_GE(lat.mean * raw_rate, 0.5)
        << "stream " << i << ": latency inconsistent with throughput";
    EXPECT_LE(lat.mean * raw_rate, stages + 1.0)
        << "stream " << i << ": more frames in flight than pipeline stages";
  }
}

TEST_F(TracedSim, EventRecordingProducesDisjointPerComponentIntervals) {
  const Workload w{{ModelId::kAlexNet, ModelId::kSqueezeNet}};
  util::Rng rng(23);
  const sim::Mapping m = workload::random_mapping(rng, zoo(), w, 3);
  const auto r = sim_.simulate_traced(w.resolve(zoo()), m, true);
  ASSERT_FALSE(r.trace.events.empty());

  // Per component, execution intervals must not overlap (FIFO, one at a
  // time) and must lie within the horizon.
  for (const ComponentId c : device::kAllComponents) {
    std::vector<std::pair<double, double>> spans;
    for (const auto& ev : r.trace.events) {
      if (ev.comp != c) continue;
      EXPECT_LE(ev.start, ev.end);
      spans.emplace_back(ev.start, ev.end);
    }
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].first, spans[i - 1].second - 1e-12)
          << "overlapping executions on component "
          << device::component_name(c);
    }
  }
}

TEST_F(TracedSim, EventsOffByDefault) {
  const Workload w{{ModelId::kAlexNet}};
  const sim::Mapping m =
      sim::Mapping::all_on(w.layer_counts(zoo()), ComponentId::kGpu);
  const auto r = sim_.simulate_traced(w.resolve(zoo()), m);
  EXPECT_TRUE(r.trace.events.empty());
}

TEST_F(TracedSim, BusyTimeMatchesRecordedEvents) {
  const Workload w{{ModelId::kMobileNet, ModelId::kAlexNet}};
  util::Rng rng(29);
  const sim::Mapping m = workload::random_mapping(rng, zoo(), w, 3);
  const auto r = sim_.simulate_traced(w.resolve(zoo()), m, true);

  for (const ComponentId c : device::kAllComponents) {
    double from_events = 0.0;
    for (const auto& ev : r.trace.events) {
      if (ev.comp != c) continue;
      from_events +=
          std::max(0.0, std::min(ev.end, r.trace.horizon_seconds) -
                            std::max(ev.start, r.trace.warmup_seconds));
    }
    const auto& cu = r.trace.components[device::component_index(c)];
    EXPECT_NEAR(cu.busy_seconds, from_events, 1e-9)
        << device::component_name(c);
  }
}

TEST_F(TracedSim, InfeasibleWorkloadYieldsEmptyTrace) {
  // Six heavy DNNs: exceeds board memory, the paper's "unresponsive" case.
  const Workload w{{ModelId::kVgg19, ModelId::kVgg16, ModelId::kVgg13,
                    ModelId::kResNet101, ModelId::kInceptionV4,
                    ModelId::kResNet50}};
  const sim::Mapping m =
      sim::Mapping::all_on(w.layer_counts(zoo()), ComponentId::kGpu);
  const auto r = sim_.simulate_traced(w.resolve(zoo()), m);
  EXPECT_FALSE(r.report.feasible);
  ASSERT_EQ(r.trace.per_dnn_latency.size(), 6u);
  for (const auto& lat : r.trace.per_dnn_latency) EXPECT_EQ(lat.samples, 0u);
}

TEST_F(TracedSim, BalancedMappingReducesPeakUtilization) {
  // The paper's core claim, observable: all-on-GPU shows extreme GPU
  // pressure; a pipelined split lowers the maximum component utilization
  // gap. Compare max queue depth on the GPU.
  const Workload w{{ModelId::kVgg16, ModelId::kResNet50, ModelId::kAlexNet,
                    ModelId::kMobileNet}};
  const auto nets = w.resolve(zoo());

  const sim::Mapping all_gpu =
      sim::Mapping::all_on(w.layer_counts(zoo()), ComponentId::kGpu);
  const auto gpu_run = sim_.simulate_traced(nets, all_gpu);
  ASSERT_TRUE(gpu_run.report.feasible);

  // A simple static split: big nets pipelined across GPU+big, small ones on
  // big/LITTLE.
  util::Rng rng(31);
  double best_queue = gpu_run.trace.components[0].max_queue_depth;
  bool improved = false;
  for (int tries = 0; tries < 20 && !improved; ++tries) {
    const sim::Mapping m = workload::random_mapping(rng, zoo(), w, 3);
    const auto run = sim_.simulate_traced(nets, m);
    if (!run.report.feasible) continue;
    if (run.trace.components[0].max_queue_depth < best_queue) improved = true;
  }
  EXPECT_TRUE(improved)
      << "no random split ever relieved the GPU queue vs all-on-GPU";
}

// --- Gantt rendering ---------------------------------------------------------

TEST_F(TracedSim, GanttRendersOneLanePerComponent) {
  const Workload w{{ModelId::kAlexNet, ModelId::kSqueezeNet}};
  util::Rng rng(41);
  const sim::Mapping m = workload::random_mapping(rng, zoo(), w, 3);
  const auto r = sim_.simulate_traced(w.resolve(zoo()), m, true);

  const std::string gantt = sim::render_gantt(r.trace);

  // Three lanes, each "name|<72 columns>|\n".
  std::size_t lanes = 0;
  std::size_t start = 0;
  for (std::size_t pos; (pos = gantt.find('\n', start)) != std::string::npos;
       start = pos + 1) {
    ++lanes;
    const std::string lane = gantt.substr(start, pos - start);
    EXPECT_EQ(lane.rfind('|') - lane.find('|') - 1, 72u) << lane;
  }
  EXPECT_EQ(lanes, 3u);
  EXPECT_NE(gantt.find("GPU"), std::string::npos);
  EXPECT_NE(gantt.find("big"), std::string::npos);
  EXPECT_NE(gantt.find("LITTLE"), std::string::npos);

  // Only stream glyphs 0/1 and idle dots between the pipes.
  for (const char c : gantt) {
    EXPECT_TRUE(c == '0' || c == '1' || c == '.' || c == '|' || c == '\n' ||
                c == ' ' || std::isalpha(static_cast<unsigned char>(c)))
        << "unexpected glyph '" << c << "'";
  }
}

TEST_F(TracedSim, GanttAllOnGpuPaintsOnlyTheGpuLane) {
  const Workload w{{ModelId::kAlexNet}};
  const sim::Mapping m =
      sim::Mapping::all_on(w.layer_counts(zoo()), ComponentId::kGpu);
  const auto r = sim_.simulate_traced(w.resolve(zoo()), m, true);
  const std::string gantt = sim::render_gantt(r.trace);

  // Split lanes.
  std::vector<std::string> lanes;
  std::size_t start = 0;
  for (std::size_t pos; (pos = gantt.find('\n', start)) != std::string::npos;
       start = pos + 1) {
    lanes.push_back(gantt.substr(start, pos - start));
  }
  ASSERT_EQ(lanes.size(), 3u);
  EXPECT_NE(lanes[0].find('0'), std::string::npos) << "GPU lane empty";
  EXPECT_EQ(lanes[1].find('0'), std::string::npos) << "big lane not idle";
  EXPECT_EQ(lanes[2].find('0'), std::string::npos) << "LITTLE lane not idle";
}

TEST_F(TracedSim, GanttWithoutEventsThrows) {
  const Workload w{{ModelId::kAlexNet}};
  const sim::Mapping m =
      sim::Mapping::all_on(w.layer_counts(zoo()), ComponentId::kGpu);
  const auto r = sim_.simulate_traced(w.resolve(zoo()), m, false);
  EXPECT_THROW(sim::render_gantt(r.trace), std::invalid_argument);
}

}  // namespace

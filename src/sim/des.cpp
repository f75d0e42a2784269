#include "sim/des.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/require.hpp"

namespace omniboost::sim {

namespace {

/// Measurement horizon, as a multiple of the slowest stream's solo inference
/// time.
constexpr double kHorizonMultiplier = 60.0;
/// Fraction of the horizon discarded as warm-up.
constexpr double kWarmupFraction = 0.3;
/// Hard event cap (safety against degenerate workloads).
constexpr std::size_t kMaxEvents = 4'000'000;

/// One frame flowing through a stream's pipeline.
struct Frame {
  std::size_t dnn = 0;
  std::size_t stage = 0;
  double inject_time = 0.0;  ///< arrival time at stage 0 (latency tracking)
};

struct Event {
  double time = 0.0;
  enum class Kind { kArrival, kCompletion } kind = Kind::kArrival;
  Frame frame;
  std::size_t component = 0;  ///< for completions

  bool operator>(const Event& rhs) const { return time > rhs.time; }
};

}  // namespace

DesSimulator::DesSimulator(const device::DeviceSpec& device)
    : device_(device), cost_(device_) {}

void DesSimulator::set_throttle(double factor) {
  OB_REQUIRE(std::isfinite(factor) && factor > 0.0 && factor <= 1.0,
             "DesSimulator::set_throttle: factor must be in (0, 1]");
  device_.throttle = factor;
}

void finalize_report(ThroughputReport& report, const Scene& scene,
                     const NetworkList& nets,
                     const device::DeviceSpec& device) {
  report.component_penalty = scene.penalty;

  // Shared-DRAM wall: if aggregate traffic demand exceeds the board's DRAM
  // bandwidth, all streams slow down proportionally (bandwidth is a single
  // shared resource on the HiKey970's LPDDR4X).
  double demand = 0.0;  // bytes/s
  for (std::size_t i = 0; i < nets.size(); ++i)
    demand += report.per_dnn_rate[i] * stream_traffic_bytes(scene, i);
  report.dram_demand_gbps = demand / 1e9;
  // The board throttle scales the DRAM wall alongside compute (the cost
  // model already scaled kernel times); at 1.0 the multiply is bit-exact.
  const double cap = device.dram_bw_gbps * 1e9 * device.throttle;
  report.dram_scale = demand > cap ? cap / demand : 1.0;
  for (double& r : report.per_dnn_rate) r *= report.dram_scale;

  // Average workload throughput T (paper §V-A). Under the synchronized
  // measurement window (every stream completes the same number of frames),
  // each stream's INF/sec equals N / window, so T is the slowest stream's
  // free-running rate.
  double sum = 0.0;
  double slowest = report.per_dnn_rate.empty() ? 0.0 : report.per_dnn_rate[0];
  for (double r : report.per_dnn_rate) {
    sum += r;
    slowest = std::min(slowest, r);
  }
  report.free_running_avg =
      nets.empty() ? 0.0 : sum / static_cast<double>(nets.size());
  report.avg_throughput = slowest;

  // FLOP-weighted inference flow per component at the synchronized rate T:
  // flow_alpha = sum_i T * (flops of i on alpha / flops of i). Every flow is
  // proportional to T, so the estimator regresses the workload throughput
  // redundantly in all three outputs — averaging its three predictions at
  // query time cancels part of the regression error.
  report.per_component_rate = {};
  for (std::size_t i = 0; i < nets.size(); ++i) {
    double total_flops = 0.0;
    for (std::size_t sid : scene.by_dnn[i])
      total_flops += scene.segments[sid].flops;
    if (total_flops <= 0.0) continue;
    for (std::size_t sid : scene.by_dnn[i]) {
      const SegmentInfo& seg = scene.segments[sid];
      report.per_component_rate[device::component_index(seg.span.comp)] +=
          report.avg_throughput * (seg.flops / total_flops);
    }
  }
}

ThroughputReport DesSimulator::simulate(const NetworkList& nets,
                                        const Mapping& mapping) const {
  return run(nets, mapping, nullptr, nullptr, false);
}

ThroughputReport DesSimulator::simulate(
    const NetworkList& nets, const Mapping& mapping,
    const std::vector<double>& start_delay_s) const {
  return run(nets, mapping, start_delay_s.empty() ? nullptr : &start_delay_s,
             nullptr, false);
}

DesSimulator::TracedResult DesSimulator::simulate_traced(
    const NetworkList& nets, const Mapping& mapping,
    bool record_events) const {
  TracedResult out;
  out.report = run(nets, mapping, nullptr, &out.trace, record_events);
  return out;
}

DesSimulator::TracedResult DesSimulator::simulate_traced(
    const NetworkList& nets, const Mapping& mapping,
    const std::vector<double>& start_delay_s, bool record_events) const {
  TracedResult out;
  out.report = run(nets, mapping,
                   start_delay_s.empty() ? nullptr : &start_delay_s,
                   &out.trace, record_events);
  return out;
}

ThroughputReport DesSimulator::run(const NetworkList& nets,
                                   const Mapping& mapping,
                                   const std::vector<double>* start_delay_s,
                                   ExecutionTrace* trace,
                                   bool record_events) const {
  OB_REQUIRE(!nets.empty(), "DesSimulator::simulate: empty workload");
  for (const auto* n : nets)
    OB_REQUIRE(n != nullptr, "DesSimulator::simulate: null network");
  if (start_delay_s != nullptr) {
    OB_REQUIRE(start_delay_s->size() == nets.size(),
               "DesSimulator::simulate: start delay arity mismatch");
    for (const double d : *start_delay_s)
      OB_REQUIRE(d >= 0.0 && std::isfinite(d),
                 "DesSimulator::simulate: start delays must be finite, >= 0");
  }

  const Scene scene = build_scene(nets, mapping, cost_);
  ThroughputReport report;
  report.per_dnn_rate.assign(nets.size(), 0.0);
  report.component_penalty = scene.penalty;

  if (!scene.fits_in_memory) {
    // The paper observed the board becoming unresponsive at 6 concurrent
    // DNNs; we model that as an infeasible (zero-throughput) outcome.
    report.feasible = false;
    if (trace != nullptr) {
      trace->per_dnn_latency.assign(nets.size(), LatencyStats{});
    }
    return report;
  }

  // Horizon: scaled to the slowest stream's solo (contended) inference time.
  double slowest = 0.0;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    double t = 0.0;
    for (std::size_t sid : scene.by_dnn[i]) {
      t += scene.segments[sid].service_time_s;
      t += scene.segments[sid].transfer_out_s;
    }
    slowest = std::max(slowest, t);
  }
  const double horizon = kHorizonMultiplier * slowest;
  const double warmup = kWarmupFraction * horizon;
  const double window = horizon - warmup;

  std::vector<std::vector<double>> latencies;
  if (trace != nullptr) {
    trace->warmup_seconds = warmup;
    trace->horizon_seconds = horizon;
    for (auto& cu : trace->components) {
      cu = ComponentUtilization{};
      cu.window_seconds = window;
    }
    latencies.assign(nets.size(), {});
  }

  // Component state: FIFO queues of pending frames.
  struct CompState {
    bool busy = false;
    std::queue<Frame> queue;
  };
  std::array<CompState, device::kNumComponents> comps;
  std::vector<std::size_t> completions(nets.size(), 0);

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;

  const auto segment_of = [&](const Frame& f) -> const SegmentInfo& {
    return scene.segments[scene.by_dnn[f.dnn][f.stage]];
  };

  const auto start_service = [&](double now, const Frame& f) {
    const SegmentInfo& seg = segment_of(f);
    const std::size_t c = device::component_index(seg.span.comp);
    comps[c].busy = true;
    events.push(Event{now + seg.service_time_s, Event::Kind::kCompletion, f,
                      c});
  };

  const auto enqueue = [&](double now, const Frame& f) {
    const SegmentInfo& seg = segment_of(f);
    const std::size_t c = device::component_index(seg.span.comp);
    if (!comps[c].busy) {
      start_service(now, f);
    } else {
      comps[c].queue.push(f);
      if (trace != nullptr) {
        auto& cu = trace->components[c];
        cu.max_queue_depth = std::max(cu.max_queue_depth,
                                      comps[c].queue.size());
      }
    }
  };

  // Closed-loop injection: one frame in flight per pipeline stage keeps
  // every stage busy without unbounded queueing.
  for (std::size_t i = 0; i < nets.size(); ++i)
    for (std::size_t s = 0; s < scene.by_dnn[i].size(); ++s)
      events.push(Event{0.0, Event::Kind::kArrival, Frame{i, 0}, 0});

  std::size_t processed = 0;
  while (!events.empty() && processed < kMaxEvents) {
    const Event ev = events.top();
    events.pop();
    ++processed;
    if (ev.time > horizon) break;

    if (ev.kind == Event::Kind::kArrival) {
      enqueue(ev.time, ev.frame);
      continue;
    }

    // Completion of a segment execution.
    const SegmentInfo& seg = segment_of(ev.frame);
    CompState& comp = comps[ev.component];
    comp.busy = false;

    if (trace != nullptr) {
      const double exec_start = ev.time - seg.service_time_s;
      auto& cu = trace->components[ev.component];
      // Busy time clipped to the measurement window.
      cu.busy_seconds += std::max(
          0.0, std::min(ev.time, horizon) - std::max(exec_start, warmup));
      if (ev.time >= warmup) ++cu.executions;
      if (record_events) {
        trace->events.push_back(TraceEvent{exec_start, ev.time, ev.frame.dnn,
                                           ev.frame.stage, seg.span.comp});
      }
    }
    if (!comp.queue.empty()) {
      const Frame next = comp.queue.front();
      comp.queue.pop();
      start_service(ev.time, next);
    }

    Frame f = ev.frame;
    if (f.stage + 1 < scene.by_dnn[f.dnn].size()) {
      f.stage += 1;
      events.push(Event{ev.time + seg.transfer_out_s, Event::Kind::kArrival,
                        f, 0});
    } else {
      if (ev.time >= warmup) {
        ++completions[f.dnn];
        if (trace != nullptr)
          latencies[f.dnn].push_back(ev.time - f.inject_time);
      }
      // Recirculate: the stream immediately starts its next input frame.
      events.push(
          Event{ev.time, Event::Kind::kArrival, Frame{f.dnn, 0, ev.time}, 0});
    }
  }

  OB_ENSURE(window > 0.0, "DES: empty measurement window");
  if (trace != nullptr) {
    trace->per_dnn_latency.clear();
    trace->per_dnn_latency.reserve(nets.size());
    for (auto& v : latencies)
      trace->per_dnn_latency.push_back(LatencyStats::from_samples(std::move(v)));
  }
  for (std::size_t i = 0; i < nets.size(); ++i) {
    report.per_dnn_rate[i] =
        static_cast<double>(completions[i]) / window;
    // One-off start stall (migration cost): the stream is absent for the
    // first start_delay_s[i] of the measurement window, so its measured
    // completions scale by the fraction of the window it actually served.
    // Charged AGAINST the steady-state rate rather than by perturbing the
    // event loop: shifting injection phase would interact chaotically with
    // queueing (it can even raise the synchronized-window T) and a stall
    // shorter than the warm-up would silently vanish. This form is
    // deterministic, strictly monotone in the delay, and zero-delay is
    // bit-identical to the undelayed run.
    if (start_delay_s != nullptr) {
      const double lost = std::min((*start_delay_s)[i], window);
      report.per_dnn_rate[i] *= (window - lost) / window;
    }
  }

  finalize_report(report, scene, nets, cost_.device());
  return report;
}

}  // namespace omniboost::sim

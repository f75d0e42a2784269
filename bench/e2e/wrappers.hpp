#pragma once
/// \file wrappers.hpp
/// The benchmark's only hooks into the library: decorators around public
/// interfaces that open a span per call. Nothing here changes what the
/// wrapped object computes.
///
///  - TimedModule: an nn::Module around one estimator layer; the replica
///    built by build_timed_replica() is the estimator's stack rebuilt from
///    public nn layers with a span around every layer.
///  - TimedScheduler: a core::IScheduler decorator, installed through the
///    SchedulerFactory, that also tallies the ScheduleResult counters.
///  - traced_evaluator(): the batch evaluator OmniBoostScheduler builds
///    internally (render a masked input per mapping, then one
///    predict_rewards call), with spans, for the core::Mcts mirror.
///  - EpochStamper: a constant nn::LrScheduler; the trainer asks it for the
///    learning rate at the start of every epoch, which stamps the epoch
///    (and moves the training thread to its next CPU, see CpuRotation).

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/embedding.hpp"
#include "core/estimator.hpp"
#include "core/mcts.hpp"
#include "core/scheduler.hpp"
#include "device/device.hpp"
#include "e2e/stats.hpp"
#include "e2e/trace.hpp"
#include "nn/layers.hpp"
#include "nn/schedulers.hpp"
#include "nn/serialize.hpp"

namespace omniboost::e2e {

class TimedModule final : public nn::Module {
 public:
  /// \p layer names the spans: `<layer>.forward` and `<layer>.backward`.
  TimedModule(std::unique_ptr<nn::Module> inner, Tracer& tracer,
              const std::string& layer)
      : inner_(std::move(inner)),
        tracer_(&tracer),
        forward_(tracer.name(layer + ".forward")),
        backward_(tracer.name(layer + ".backward")) {}

  nn::Tensor forward(const nn::Tensor& x) override {
    const Tracer::Scope span(*tracer_, forward_);
    return inner_->forward(x);
  }
  nn::Tensor backward(const nn::Tensor& grad_out) override {
    const Tracer::Scope span(*tracer_, backward_);
    return inner_->backward(grad_out);
  }
  std::vector<nn::Param*> params() override { return inner_->params(); }
  std::vector<nn::Tensor*> buffers() override { return inner_->buffers(); }
  void set_training(bool training) override {
    training_ = training;
    inner_->set_training(training);
  }
  void set_kernel(nn::KernelKind kind) override { inner_->set_kernel(kind); }
  void init(util::Rng& rng) override { inner_->init(rng); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<nn::Module> inner_;
  Tracer* tracer_;
  Tracer::NameId forward_;
  Tracer::NameId backward_;
};

/// The estimator's ResNet9-style stack (core/estimator.cpp, build_net) with
/// a TimedModule around every layer. Span names: nn.conv2d, nn.batchnorm2d,
/// nn.gelu, nn.maxpool2d, nn.residual (the skip add is its self time) and
/// nn.head (global pooling plus the linear regression head).
inline std::unique_ptr<nn::Sequential> build_timed_replica(
    const core::EstimatorConfig& config, Tracer& tracer) {
  const auto timed = [&tracer](std::unique_ptr<nn::Module> m,
                               const char* layer) {
    return std::make_unique<TimedModule>(std::move(m), tracer, layer);
  };
  const auto conv_block = [&](nn::Sequential& seq, std::size_t in_ch,
                              std::size_t out_ch) {
    seq.add(timed(std::make_unique<nn::Conv2d>(in_ch, out_ch, 3, 1, 1),
                  "nn.conv2d"));
    seq.add(timed(std::make_unique<nn::BatchNorm2d>(out_ch), "nn.batchnorm2d"));
    seq.add(timed(std::make_unique<nn::GELU>(), "nn.gelu"));
  };
  const auto residual = [&](std::size_t ch) {
    auto body = std::make_unique<nn::Sequential>();
    conv_block(*body, ch, ch);
    conv_block(*body, ch, ch);
    return timed(std::make_unique<nn::Residual>(std::move(body)),
                 "nn.residual");
  };
  auto net = std::make_unique<nn::Sequential>();
  conv_block(*net, device::kNumComponents, config.c1);
  net->add(timed(std::make_unique<nn::MaxPool2d>(2), "nn.maxpool2d"));
  conv_block(*net, config.c1, config.c2);
  net->add(timed(std::make_unique<nn::MaxPool2d>(2), "nn.maxpool2d"));
  net->add(residual(config.c2));
  conv_block(*net, config.c2, config.c3);
  net->add(residual(config.c3));
  auto head = std::make_unique<nn::Sequential>();
  head->emplace<nn::GlobalAvgPool>();
  head->emplace<nn::Linear>(config.c3, 3);
  net->add(timed(std::move(head), "nn.head"));
  return net;
}

/// Copies the trained weights of \p est into \p replica. The estimator's
/// serialized form ends with nn::save_params of its network; the replica
/// has the same parameter list, so its own save_params output has the same
/// length and locates that tail. load_params throws on any shape mismatch.
inline void load_replica_weights(const core::ThroughputEstimator& est,
                                 nn::Module& replica) {
  std::stringstream full;
  est.save(full);
  std::stringstream own;
  nn::save_params(replica, own);
  const std::string blob = full.str();
  const std::size_t n = own.str().size();
  if (blob.size() < n)
    throw std::runtime_error("estimator file shorter than its parameters");
  std::istringstream tail(blob.substr(blob.size() - n));
  nn::load_params(replica, tail);
}

/// ScheduleResult counters summed over the decisions a TimedScheduler saw.
struct DecisionStats {
  std::size_t decisions = 0;
  std::size_t warm = 0;  ///< warm-started reschedule() decisions
  std::size_t evaluations = 0;
  std::size_t warm_evaluations = 0;
  std::size_t warm_cache_hits = 0;
  std::size_t des_replays = 0;
  std::size_t replay_hits = 0;

  void add(const core::ScheduleResult& r, bool is_warm) {
    ++decisions;
    evaluations += r.evaluations;
    des_replays += r.des_replays;
    replay_hits += r.replay_hits;
    if (is_warm) {
      ++warm;
      warm_evaluations += r.evaluations;
      warm_cache_hits += r.cache_hits;
    }
  }
};

class TimedScheduler final : public core::IScheduler {
 public:
  TimedScheduler(std::unique_ptr<core::IScheduler> inner, Tracer& tracer,
                 const std::string& span, DecisionStats& stats)
      : inner_(std::move(inner)),
        tracer_(&tracer),
        span_(tracer.name(span)),
        stats_(&stats) {}

  std::string name() const override { return inner_->name(); }

  core::ScheduleResult schedule(const workload::Workload& w) override {
    const Tracer::Scope span(*tracer_, span_);
    core::ScheduleResult r = inner_->schedule(w);
    stats_->add(r, false);
    return r;
  }

  core::ScheduleResult reschedule(const workload::Workload& w,
                                  const sim::Mapping& previous,
                                  const core::ScheduleContext& ctx) override {
    const Tracer::Scope span(*tracer_, span_);
    core::ScheduleResult r = inner_->reschedule(w, previous, ctx);
    stats_->add(r, ctx.warm_start);
    return r;
  }

 private:
  std::unique_ptr<core::IScheduler> inner_;
  Tracer* tracer_;
  Tracer::NameId span_;
  DecisionStats* stats_;
};

/// OmniBoostScheduler's evaluator with spans: core.mcts.evaluator around
/// the call, core.embedding.masked_input around each render and
/// core.estimator.predict around the predict_rewards call. The first
/// \p record_cap rendered inputs are copied into \p record when it is
/// non-null (the nn replica replays them). \p w, \p embedding, \p tracer
/// and \p record must outlive the evaluator.
inline core::BatchMappingEvaluator traced_evaluator(
    const core::EmbeddingTensor& embedding, const workload::Workload& w,
    std::shared_ptr<const core::ThroughputEstimator> est, Tracer& tracer,
    std::vector<tensor::Tensor>* record, std::size_t record_cap) {
  const Tracer::NameId evaluator = tracer.name("core.mcts.evaluator");
  const Tracer::NameId render = tracer.name("core.embedding.masked_input");
  const Tracer::NameId predict = tracer.name("core.estimator.predict");
  return [&embedding, &w, est = std::move(est), &tracer, record, record_cap,
          evaluator, render, predict](
             const std::vector<sim::Mapping>& mappings) {
    const Tracer::Scope call(tracer, evaluator);
    std::vector<tensor::Tensor> inputs;
    inputs.reserve(mappings.size());
    for (const sim::Mapping& m : mappings) {
      const Tracer::Scope span(tracer, render);
      inputs.push_back(embedding.masked_input(w, m));
    }
    for (const tensor::Tensor& x : inputs)
      if (record != nullptr && record->size() < record_cap)
        record->push_back(x);
    const Tracer::Scope span(tracer, predict);
    return est->predict_rewards(inputs);
  };
}

/// Constant learning rate that records when each epoch starts and moves
/// the training thread to its next CPU (the trainer asks for the rate after
/// it has started its validation threads, which keep their full CPU mask).
/// With a tracer it also keeps one `nn.train.epoch` span open per epoch
/// (close the last one with finish() after fit returns).
class EpochStamper final : public nn::LrScheduler {
 public:
  EpochStamper(float lr, CpuRotation& cpus, Tracer* tracer)
      : lr_(lr), cpus_(&cpus), tracer_(tracer) {
    if (tracer_ != nullptr) epoch_span_ = tracer_->name("nn.train.epoch");
  }

  float lr_at(std::size_t /*epoch*/) const override {
    cpus_->next();
    if (tracer_ != nullptr) {
      if (open_) tracer_->close(open_index_);
      tracer_->begin_op();
      open_index_ = tracer_->open(epoch_span_);
      open_ = true;
    }
    starts_.push_back(Clock::now());
    return lr_;
  }

  /// Per-epoch durations in ms, the last epoch ending at \p end.
  std::vector<double> epoch_ms(Clock::time_point end) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < starts_.size(); ++i) {
      const Clock::time_point stop =
          i + 1 < starts_.size() ? starts_[i + 1] : end;
      out.push_back(
          std::chrono::duration<double, std::milli>(stop - starts_[i]).count());
    }
    return out;
  }

  void finish() const {
    if (open_) tracer_->close(open_index_);
    open_ = false;
  }

 private:
  float lr_;
  CpuRotation* cpus_;
  Tracer* tracer_;
  Tracer::NameId epoch_span_ = 0;
  // The trainer holds the schedule by const pointer; stamping is logically
  // an observation, not a change of the schedule.
  mutable std::vector<Clock::time_point> starts_;
  mutable bool open_ = false;
  mutable std::size_t open_index_ = 0;
};

}  // namespace omniboost::e2e

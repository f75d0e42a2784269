#include "core/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "device/device.hpp"
#include "nn/layers.hpp"
#include "nn/serialize.hpp"
#include "util/require.hpp"

namespace omniboost::core {

namespace {

/// Adds the activation chosen by the configuration.
void add_activation(nn::Sequential& seq, bool use_gelu) {
  if (use_gelu) {
    seq.emplace<nn::GELU>();
  } else {
    seq.emplace<nn::ReLU>();
  }
}

/// conv3x3 -> BN -> activation.
void add_conv_block(nn::Sequential& seq, std::size_t in_ch, std::size_t out_ch,
                    bool use_gelu) {
  seq.emplace<nn::Conv2d>(in_ch, out_ch, 3, 1, 1);
  seq.emplace<nn::BatchNorm2d>(out_ch);
  add_activation(seq, use_gelu);
}

/// Residual stage: two conv blocks wrapped in an identity skip.
std::unique_ptr<nn::Module> make_residual(std::size_t ch, bool use_gelu) {
  auto body = std::make_unique<nn::Sequential>();
  add_conv_block(*body, ch, ch, use_gelu);
  add_conv_block(*body, ch, ch, use_gelu);
  return std::make_unique<nn::Residual>(std::move(body));
}

/// Builds the ResNet9-style body (paper §IV-B): pooled stem, two residual
/// stages, global pooling and a 3-unit linear regression head (no output
/// activation). Early pooling keeps the forward/backward pass cheap enough
/// to train in well under a minute on a CPU, as the paper reports for its
/// GPU setup. Shared by the constructor and the validation-replica factory.
std::unique_ptr<nn::Sequential> build_net(const EstimatorConfig& config) {
  auto net = std::make_unique<nn::Sequential>();
  add_conv_block(*net, device::kNumComponents, config.c1, config.use_gelu);
  net->emplace<nn::MaxPool2d>(2);
  add_conv_block(*net, config.c1, config.c2, config.use_gelu);
  net->emplace<nn::MaxPool2d>(2);
  net->add(make_residual(config.c2, config.use_gelu));
  add_conv_block(*net, config.c2, config.c3, config.use_gelu);
  net->add(make_residual(config.c3, config.use_gelu));
  net->emplace<nn::GlobalAvgPool>();
  net->emplace<nn::Linear>(config.c3, 3);
  return net;
}

}  // namespace

ThroughputEstimator::ThroughputEstimator(std::size_t models_dim,
                                         std::size_t layers_dim,
                                         EstimatorConfig config)
    : models_dim_(models_dim), layers_dim_(layers_dim), config_(config) {
  OB_REQUIRE(models_dim >= 2 && layers_dim >= 8,
             "ThroughputEstimator: embedding too small for the CNN");
  for (auto& t : target_transform_) t = util::Affine1D{};

  net_ = build_net(config);

  util::Rng rng(config.init_seed);
  net_->init(rng);
  net_->set_training(false);
}

void ThroughputEstimator::set_kernel(nn::KernelKind kind) {
  kernel_kind_ = kind;
  net_->set_kernel(kind);
}

std::size_t ThroughputEstimator::num_params() const {
  return net_->num_params();
}

nn::TrainHistory ThroughputEstimator::fit(const SampleSet& data,
                                          std::size_t val_count,
                                          const nn::Loss& loss,
                                          const nn::TrainConfig& train) {
  OB_REQUIRE(data.inputs.size() == data.targets.size(),
             "ThroughputEstimator::fit: ragged sample set");
  OB_REQUIRE(val_count < data.size(),
             "ThroughputEstimator::fit: validation set leaves no train data");

  const std::size_t train_count = data.size() - val_count;

  // Fit the two-stage preprocessing (standardize then min-max, §V) per
  // output on the *training* split only, composed into one affine map. The
  // optional log compression runs first to tame the rates' dynamic range.
  for (std::size_t d = 0; d < 3; ++d) {
    std::vector<double> raw;
    raw.reserve(train_count);
    for (std::size_t i = 0; i < train_count; ++i)
      raw.push_back(compress(data.targets[i][d]));
    const util::Affine1D standardize = util::fit_standardizer(raw);
    std::vector<double> standardized;
    standardized.reserve(raw.size());
    for (double y : raw) standardized.push_back(standardize.apply(y));
    target_transform_[d] = standardize.then(util::fit_minmax(standardized));
  }

  nn::Dataset all;
  all.inputs = data.inputs;
  all.targets.reserve(data.size());
  for (const auto& t : data.targets) {
    tensor::Tensor y({3});
    for (std::size_t d = 0; d < 3; ++d)
      y[d] = static_cast<float>(target_transform_[d].apply(compress(t[d])));
    all.targets.push_back(std::move(y));
  }
  auto [train_set, val_set] = all.split_tail(val_count);

  // Give the parallel validation pass (TrainConfig::workers > 1) a replica
  // factory that rebuilds this exact architecture with this instance's
  // kernel kind, unless the caller supplied one.
  nn::TrainConfig tc = train;
  if (tc.workers > 1 && tc.replicate == nullptr) {
    const EstimatorConfig config = config_;
    const nn::KernelKind kind = kernel_kind_;
    tc.replicate = [config, kind]() -> std::unique_ptr<nn::Module> {
      auto net = build_net(config);
      net->set_kernel(kind);
      return net;
    };
  }

  net_->set_training(true);
  nn::TrainHistory history =
      nn::train_regression(*net_, loss, train_set, val_set, tc);
  net_->set_training(false);
  trained_ = true;
  return history;
}

std::array<double, 3> ThroughputEstimator::predict_normalized(
    const tensor::Tensor& input) const {
  OB_REQUIRE(input.rank() == 3 && input.extent(0) == device::kNumComponents &&
                 input.extent(1) == models_dim_ &&
                 input.extent(2) == layers_dim_,
             "ThroughputEstimator::predict: unexpected input shape");
  tensor::Tensor batched = input.reshaped(
      {1, device::kNumComponents, models_dim_, layers_dim_});
  const tensor::Tensor out = net_->forward(batched);
  OB_ENSURE(out.size() == 3, "estimator head must emit 3 outputs");
  return {static_cast<double>(out[0]), static_cast<double>(out[1]),
          static_cast<double>(out[2])};
}

std::array<double, 3> ThroughputEstimator::predict(
    const tensor::Tensor& input) const {
  const std::array<double, 3> norm = predict_normalized(input);
  std::array<double, 3> rates{};
  for (std::size_t d = 0; d < 3; ++d)
    rates[d] = expand(target_transform_[d].invert(norm[d]));
  return rates;
}

double ThroughputEstimator::predict_reward(const tensor::Tensor& input) const {
  const std::array<double, 3> rates = predict(input);
  return (rates[0] + rates[1] + rates[2]) / 3.0;
}

std::vector<std::array<double, 3>> ThroughputEstimator::predict_batch(
    const std::vector<tensor::Tensor>& inputs) const {
  std::vector<std::array<double, 3>> rates(inputs.size());
  if (inputs.empty()) return rates;
  for (const tensor::Tensor& input : inputs) {
    OB_REQUIRE(input.rank() == 3 &&
                   input.extent(0) == device::kNumComponents &&
                   input.extent(1) == models_dim_ &&
                   input.extent(2) == layers_dim_,
               "ThroughputEstimator::predict_batch: unexpected input shape");
  }
  const tensor::Tensor out = net_->forward(tensor::stack(inputs));
  OB_ENSURE(out.rank() == 2 && out.extent(0) == inputs.size() &&
                out.extent(1) == 3,
            "estimator head must emit 3 outputs per sample");
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (std::size_t d = 0; d < 3; ++d) {
      rates[i][d] = expand(target_transform_[d].invert(
          static_cast<double>(out[i * 3 + d])));
    }
  }
  return rates;
}

std::vector<double> ThroughputEstimator::predict_rewards(
    const std::vector<tensor::Tensor>& inputs) const {
  const std::vector<std::array<double, 3>> rates = predict_batch(inputs);
  std::vector<double> rewards;
  rewards.reserve(rates.size());
  for (const std::array<double, 3>& r : rates)
    rewards.push_back((r[0] + r[1] + r[2]) / 3.0);
  return rewards;
}

namespace {

constexpr char kEstimatorMagic[4] = {'O', 'B', 'T', 'E'};
constexpr std::uint32_t kEstimatorVersion = 1;
/// Largest embedding extent or channel width load() accepts. It bounds the
/// network a file can make load() allocate (the default widths are 8, 16
/// and 24; the built-in zoo's embedding is 11 x 37).
constexpr std::uint64_t kMaxLoadDim = 1024;

void write_u64(std::ostream& os, std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  os.write(reinterpret_cast<const char*>(b), 8);
}

std::uint64_t read_u64(std::istream& is) {
  unsigned char b[8];
  is.read(reinterpret_cast<char*>(b), 8);
  if (!is) throw std::runtime_error("ThroughputEstimator::load: truncated");
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

void write_f64(std::ostream& os, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  write_u64(os, bits);
}

double read_f64(std::istream& is) {
  const std::uint64_t bits = read_u64(is);
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

/// read_f64 for a value that must be finite; \p what names it.
double read_finite_f64(std::istream& is, const char* what) {
  const double v = read_f64(is);
  if (!std::isfinite(v)) {
    throw std::runtime_error(std::string("ThroughputEstimator::load: ") +
                             what + " is not finite");
  }
  return v;
}

/// read_u64 for a dimension that must lie in [1, kMaxLoadDim].
std::size_t read_dim(std::istream& is, const char* what) {
  const std::uint64_t v = read_u64(is);
  if (v == 0 || v > kMaxLoadDim) {
    throw std::runtime_error(std::string("ThroughputEstimator::load: ") +
                             what + " = " + std::to_string(v) +
                             " is outside [1, " + std::to_string(kMaxLoadDim) +
                             "]");
  }
  return static_cast<std::size_t>(v);
}

}  // namespace

void ThroughputEstimator::save(std::ostream& os) const {
  OB_REQUIRE(trained_, "ThroughputEstimator::save: estimator not trained");
  os.write(kEstimatorMagic, 4);
  write_u64(os, kEstimatorVersion);
  write_u64(os, models_dim_);
  write_u64(os, layers_dim_);
  write_u64(os, config_.c1);
  write_u64(os, config_.c2);
  write_u64(os, config_.c3);
  write_u64(os, (config_.use_gelu ? 1u : 0u) | (config_.log_targets ? 2u : 0u));
  write_f64(os, config_.log_scale);
  write_u64(os, config_.init_seed);
  for (const util::Affine1D& t : target_transform_) {
    write_f64(os, t.shift);
    write_f64(os, t.scale);
  }
  // params() is logically read-only here; the Module interface exposes it
  // non-const because optimizers mutate through it.
  nn::save_params(const_cast<nn::Sequential&>(*net_), os);
  if (!os) throw std::runtime_error("ThroughputEstimator::save: write failed");
}

void ThroughputEstimator::save_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw std::runtime_error("ThroughputEstimator::save_file: cannot open " +
                             path);
  }
  save(os);
}

ThroughputEstimator ThroughputEstimator::load(std::istream& is) {
  char magic[4];
  is.read(magic, 4);
  if (!is || magic[0] != 'O' || magic[1] != 'B' || magic[2] != 'T' ||
      magic[3] != 'E') {
    throw std::runtime_error(
        "ThroughputEstimator::load: bad magic (not an OBTE file)");
  }
  const std::uint64_t version = read_u64(is);
  if (version != kEstimatorVersion) {
    throw std::runtime_error("ThroughputEstimator::load: unsupported version");
  }
  // Everything the constructor allocates by is checked before it runs.
  const std::size_t models_dim = read_dim(is, "models_dim");
  const std::size_t layers_dim = read_dim(is, "layers_dim");
  EstimatorConfig config;
  config.c1 = read_dim(is, "c1");
  config.c2 = read_dim(is, "c2");
  config.c3 = read_dim(is, "c3");
  const std::uint64_t flags = read_u64(is);
  config.use_gelu = (flags & 1u) != 0;
  config.log_targets = (flags & 2u) != 0;
  config.log_scale = read_finite_f64(is, "log_scale");
  if (config.log_targets && config.log_scale <= 0.0) {
    throw std::runtime_error(
        "ThroughputEstimator::load: log_scale must be > 0");
  }
  config.init_seed = read_u64(is);

  ThroughputEstimator est(models_dim, layers_dim, config);
  for (util::Affine1D& t : est.target_transform_) {
    t.shift = read_finite_f64(is, "target transform shift");
    t.scale = read_finite_f64(is, "target transform scale");
  }
  nn::load_params(*est.net_, is);
  est.trained_ = true;
  return est;
}

ThroughputEstimator ThroughputEstimator::load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("ThroughputEstimator::load_file: cannot open " +
                             path);
  }
  return load(is);
}

double ThroughputEstimator::compress(double rate) const {
  if (!config_.log_targets) return rate;
  return std::log1p(std::max(rate, 0.0) / config_.log_scale);
}

double ThroughputEstimator::expand(double value) const {
  if (!config_.log_targets) return value;
  return std::expm1(std::max(value, 0.0)) * config_.log_scale;
}

}  // namespace omniboost::core

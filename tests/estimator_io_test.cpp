// ThroughputEstimator persistence: the design-time/run-time split. A trained
// estimator saved to disk and reloaded must reproduce predictions bit-exactly
// (weights, architecture config, and fitted target preprocessing all travel).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>

#include "core/estimator.hpp"
#include "nn/loss.hpp"
#include "util/rng.hpp"

namespace {

using namespace omniboost;
using core::EstimatorConfig;
using core::SampleSet;
using core::ThroughputEstimator;
using tensor::Tensor;

constexpr std::size_t kM = 11;
constexpr std::size_t kL = 37;

/// Small synthetic training set (same construction as estimator_test).
SampleSet make_synthetic(std::size_t n, util::Rng& rng) {
  SampleSet set;
  for (std::size_t s = 0; s < n; ++s) {
    Tensor x({3, kM, kL});
    std::array<double, 3> mass{};
    for (std::size_t c = 0; c < 3; ++c) {
      for (std::size_t i = 0; i < kM * kL; ++i) {
        const bool active = rng.chance(0.15);
        const float v = active ? static_cast<float>(rng.uniform(0.1, 1)) : 0.0f;
        x[c * kM * kL + i] = v;
        mass[c] += v;
      }
    }
    set.inputs.push_back(std::move(x));
    set.targets.push_back({30.0 / (1.0 + mass[0]), 20.0 / (1.0 + mass[1]),
                           8.0 / (1.0 + mass[2])});
  }
  return set;
}

ThroughputEstimator make_trained(std::uint64_t seed = 21) {
  util::Rng rng(seed);
  const SampleSet data = make_synthetic(64, rng);
  ThroughputEstimator est(kM, kL);
  nn::L1Loss l1;
  nn::TrainConfig tc;
  tc.epochs = 5;
  est.fit(data, 8, l1, tc);
  return est;
}

TEST(EstimatorIO, UntrainedSaveIsRejected) {
  ThroughputEstimator est(kM, kL);
  std::stringstream buf;
  EXPECT_THROW(est.save(buf), std::invalid_argument);
}

TEST(EstimatorIO, StreamRoundTripIsBitExact) {
  ThroughputEstimator a = make_trained();
  std::stringstream buf;
  a.save(buf);
  ThroughputEstimator b = ThroughputEstimator::load(buf);

  EXPECT_TRUE(b.trained());
  EXPECT_EQ(a.num_params(), b.num_params());

  util::Rng rng(33);
  const SampleSet probes = make_synthetic(6, rng);
  for (const Tensor& x : probes.inputs) {
    const auto pa = a.predict(x);
    const auto pb = b.predict(x);
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_DOUBLE_EQ(pa[d], pb[d]) << "output " << d;
    }
    EXPECT_DOUBLE_EQ(a.predict_reward(x), b.predict_reward(x));
  }
}

TEST(EstimatorIO, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ob_estimator_test.bin")
          .string();
  ThroughputEstimator a = make_trained(55);
  a.save_file(path);
  ThroughputEstimator b = ThroughputEstimator::load_file(path);

  util::Rng rng(3);
  const SampleSet probes = make_synthetic(3, rng);
  for (const Tensor& x : probes.inputs) {
    EXPECT_DOUBLE_EQ(a.predict_reward(x), b.predict_reward(x));
  }
  std::remove(path.c_str());
}

TEST(EstimatorIO, ConfigVariantsTravel) {
  // A ReLU / no-log-compression estimator restores its exact configuration
  // (different architecture flags must not be silently dropped).
  EstimatorConfig cfg;
  cfg.use_gelu = false;
  cfg.log_targets = false;

  util::Rng rng(77);
  const SampleSet data = make_synthetic(48, rng);
  ThroughputEstimator a(kM, kL, cfg);
  nn::L1Loss l1;
  nn::TrainConfig tc;
  tc.epochs = 3;
  a.fit(data, 8, l1, tc);

  std::stringstream buf;
  a.save(buf);
  ThroughputEstimator b = ThroughputEstimator::load(buf);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(a.predict_reward(data.inputs[i]),
                     b.predict_reward(data.inputs[i]));
  }
}

TEST(EstimatorIO, RejectsForeignAndTruncatedStreams) {
  std::stringstream garbage("OBNN pretending to be an estimator");
  EXPECT_THROW(ThroughputEstimator::load(garbage), std::runtime_error);

  ThroughputEstimator a = make_trained(91);
  std::stringstream buf;
  a.save(buf);
  std::string bytes = buf.str();
  bytes.resize(bytes.size() - 64);
  std::stringstream cut(bytes);
  EXPECT_THROW(ThroughputEstimator::load(cut), std::runtime_error);
}

// Byte offsets in the saved header: magic (4), version, models_dim,
// layers_dim, c1, c2, c3, flags (8 each), log_scale, init_seed, then three
// (shift, scale) target transforms; the network's parameters follow.
constexpr std::size_t kDimsAt = 12;  // models_dim, layers_dim, c1, c2, c3
constexpr std::size_t kLogScaleAt = 60;
constexpr std::size_t kTransformsAt = 76;
constexpr std::size_t kParamsAt = 124;

/// The saved form of a trained estimator (trained once per test binary).
const std::string& saved_bytes() {
  static const std::string bytes = [] {
    std::stringstream buf;
    make_trained(13).save(buf);
    return buf.str();
  }();
  return bytes;
}

/// Loads \p bytes and returns the error message ("" if it loaded).
std::string load_error(const std::string& bytes) {
  std::stringstream in(bytes);
  try {
    ThroughputEstimator::load(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

template <typename T>
std::string with_value_at(std::string bytes, std::size_t at, T value) {
  std::memcpy(&bytes[at], &value, sizeof value);
  return bytes;
}

TEST(EstimatorIO, RejectsNonFiniteValues) {
  ASSERT_EQ(load_error(saved_bytes()), "");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_NE(load_error(with_value_at(saved_bytes(), kLogScaleAt, bad))
                  .find("log_scale is not finite"),
              std::string::npos);
    for (std::size_t t = 0; t < 6; ++t) {
      EXPECT_NE(load_error(with_value_at(saved_bytes(), kTransformsAt + 8 * t,
                                         bad))
                    .find("target transform"),
                std::string::npos)
          << "transform field " << t;
    }
  }
  EXPECT_NE(load_error(with_value_at(saved_bytes(), kLogScaleAt, 0.0))
                .find("log_scale must be > 0"),
            std::string::npos);
  // A NaN payload: the network's first weight (after the OBNN magic,
  // version, count, and the stem conv's rank and 4 extents), and the
  // stream's last float (the last BatchNorm's running variance).
  const float fnan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_NE(load_error(with_value_at(saved_bytes(), kParamsAt + 56, fnan))
                .find("non-finite value in parameter 0"),
            std::string::npos);
  const std::size_t last = saved_bytes().size() - sizeof(float);
  EXPECT_NE(load_error(with_value_at(saved_bytes(), last, fnan))
                .find("non-finite value in buffer"),
            std::string::npos);
}

TEST(EstimatorIO, RejectsTrailingBytes) {
  EXPECT_NE(load_error(saved_bytes() + "x").find("trailing bytes"),
            std::string::npos);
}

TEST(EstimatorIO, RejectsAHugeHeaderDimBeforeAllocating) {
  // 2^60 channels would overflow the weight tensor's size; the bound must
  // refuse it (a std::runtime_error naming the field) before the network
  // is built, not leave it to the allocator.
  const char* names[] = {"models_dim", "layers_dim", "c1", "c2", "c3"};
  for (std::size_t f = 0; f < 5; ++f) {
    for (const std::uint64_t dim : {std::uint64_t{0}, std::uint64_t{1025},
                                    std::uint64_t{1} << 60}) {
      const std::string error =
          load_error(with_value_at(saved_bytes(), kDimsAt + 8 * f, dim));
      EXPECT_NE(error.find(std::string(names[f]) + " = " +
                           std::to_string(dim) + " is outside [1, 1024]"),
                std::string::npos)
          << error;
    }
  }
}

TEST(EstimatorIO, MissingFileThrows) {
  EXPECT_THROW(ThroughputEstimator::load_file("/nonexistent/estimator.bin"),
               std::runtime_error);
}

}  // namespace

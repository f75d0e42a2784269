// The nn library extensions: the learning-rate schedule hook and binary
// parameter serialization.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <vector>

#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/schedulers.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "util/rng.hpp"

namespace {

using namespace omniboost;
using tensor::Tensor;

// --- LR schedule hook --------------------------------------------------------

/// Test-local schedule: base * gamma^epoch, recording every epoch asked for.
class DecayLr final : public nn::LrScheduler {
 public:
  DecayLr(float base, float gamma) : base_(base), gamma_(gamma) {}

  float lr_at(std::size_t epoch) const override {
    asked.push_back(epoch);
    return base_ * std::pow(gamma_, static_cast<float>(epoch));
  }

  mutable std::vector<std::size_t> asked;

 private:
  float base_, gamma_;
};

TEST(LrSchedulers, ApplyDrivesOptimizer) {
  nn::Param p({tensor::Shape{1}});
  nn::Adam opt({&p}, 1.0f);
  DecayLr sched(1.0f, 0.5f);
  sched.apply(opt, 3);
  EXPECT_FLOAT_EQ(opt.lr(), 0.125f);
}

TEST(LrSchedulers, TrainerHonoursSchedule) {
  // A linear probe y = 2x - 1 trained under a decaying schedule: the trainer
  // must ask for every epoch in order, and the run must still converge.
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Linear>(1, 1);
  util::Rng rng(4);
  net->init(rng);

  nn::Dataset data;
  for (int i = 0; i < 64; ++i) {
    const float x = static_cast<float>(i) / 32.0f - 1.0f;
    data.inputs.push_back(Tensor::from_vector({x}));
    data.targets.push_back(Tensor::from_vector({2.0f * x - 1.0f}));
  }

  DecayLr sched(0.05f, 0.95f);
  nn::TrainConfig cfg;
  cfg.epochs = 60;
  cfg.batch_size = 8;
  cfg.weight_decay = 0.0f;
  cfg.lr_schedule = &sched;
  nn::MSELoss mse;
  const auto history = nn::train_regression(*net, mse, data, {}, cfg);
  ASSERT_EQ(sched.asked.size(), cfg.epochs);
  for (std::size_t e = 0; e < cfg.epochs; ++e) EXPECT_EQ(sched.asked[e], e);
  EXPECT_LT(history.train_loss.back(), 1e-3)
      << "scheduled training failed to converge";
}

// --- Serialization ----------------------------------------------------------

/// A small conv net with every parameterized layer kind.
std::unique_ptr<nn::Sequential> make_net(std::uint64_t seed) {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(2, 4, 3, 1, 1);
  net->emplace<nn::BatchNorm2d>(4);
  net->emplace<nn::GELU>();
  net->emplace<nn::GlobalAvgPool>();
  net->emplace<nn::Linear>(4, 3);
  util::Rng rng(seed);
  net->init(rng);
  net->set_training(false);
  return net;
}

TEST(Serialize, RoundTripRestoresExactOutputs) {
  auto a = make_net(1);
  auto b = make_net(2);  // different weights

  Tensor x({1, 2, 8, 8});
  util::Rng rng(9);
  x.apply([&](float) { return static_cast<float>(rng.uniform(-1, 1)); });

  ASSERT_NE(a->forward(x), b->forward(x));

  std::stringstream buf;
  nn::save_params(*a, buf);
  nn::load_params(*b, buf);
  EXPECT_EQ(a->forward(x), b->forward(x))
      << "outputs differ after weight transplant";
}

TEST(Serialize, RejectsForeignStream) {
  auto net = make_net(1);
  std::stringstream buf("definitely not a weight file");
  EXPECT_THROW(nn::load_params(*net, buf), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedStream) {
  auto net = make_net(1);
  std::stringstream buf;
  nn::save_params(*net, buf);
  std::string bytes = buf.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream cut(bytes);
  EXPECT_THROW(nn::load_params(*net, cut), std::runtime_error);
}

TEST(Serialize, RejectsArchitectureMismatch) {
  auto small = make_net(1);
  auto other = std::make_unique<nn::Sequential>();
  other->emplace<nn::Linear>(4, 2);
  util::Rng rng(1);
  other->init(rng);

  std::stringstream buf;
  nn::save_params(*small, buf);
  EXPECT_THROW(nn::load_params(*other, buf), std::runtime_error);
}

TEST(Serialize, RejectsNonFiniteValuesAndTrailingBytes) {
  auto net = make_net(1);
  std::stringstream buf;
  nn::save_params(*net, buf);
  const std::string bytes = buf.str();
  // The stream ends with the last buffer's payload (BatchNorm running
  // variance): make its last float NaN, then infinite.
  for (const float bad : {std::nanf(""), INFINITY}) {
    std::string corrupt = bytes;
    std::memcpy(&corrupt[corrupt.size() - sizeof bad], &bad, sizeof bad);
    std::stringstream in(corrupt);
    try {
      nn::load_params(*net, in);
      ADD_FAILURE() << "non-finite value " << bad << " was loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite value in buffer"),
                std::string::npos)
          << e.what();
    }
  }
  std::stringstream longer(bytes + '\0');
  EXPECT_THROW(nn::load_params(*net, longer), std::runtime_error);
}

TEST(Serialize, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ob_serialize_test.bin")
          .string();
  auto a = make_net(5);
  auto b = make_net(6);
  nn::save_params_file(*a, path);
  nn::load_params_file(*b, path);

  Tensor x({1, 2, 8, 8}, 0.3f);
  EXPECT_EQ(a->forward(x), b->forward(x));
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  auto net = make_net(1);
  EXPECT_THROW(nn::load_params_file(*net, "/nonexistent/dir/weights.bin"),
               std::runtime_error);
}

}  // namespace

// Mutation tests for the two binary-or-config inputs a user hands the CLI:
// device profiles (INI text) and estimator files (estimator.bin). Each
// seeded mutant of a valid input must either be rejected with the
// documented exception, or load to a value that is safe to run on: a
// profile passes device::validate and simulates a finite throughput; an
// estimator predicts finite values or throws std::runtime_error. Scenario
// trace lines and daemon wire commands have their own mutation tests
// (scenario_test, protocol_test).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "device/profile.hpp"
#include "models/zoo.hpp"
#include "nn/loss.hpp"
#include "sim/des.hpp"
#include "util/rng.hpp"

namespace {

using namespace omniboost;
using device::ComponentId;

/// Applies 1-4 byte-level mutations: overwrite with a byte from \p charset
/// (any byte when empty), insert one, or erase one. Half of them land in the
/// first \p hot bytes, so a short header is not drowned out by a long
/// payload.
std::string mutate(std::string bytes, util::Rng& rng,
                   const std::string& charset, std::size_t hot) {
  const auto pick = [&]() -> char {
    return charset.empty() ? static_cast<char>(rng.below(256))
                           : charset[rng.below(charset.size())];
  };
  const std::size_t mutations = 1 + rng.below(4);
  for (std::size_t m = 0; m < mutations && !bytes.empty(); ++m) {
    const std::size_t span =
        rng.chance(0.5) ? std::min(hot, bytes.size()) : bytes.size();
    const std::size_t pos = rng.below(span);
    switch (rng.below(8)) {
      case 0:
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos), pick());
        break;
      case 1:
        bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(pos));
        break;
      default:
        bytes[pos] = pick();
        break;
    }
  }
  return bytes;
}

// --- Device profiles ---------------------------------------------------------

TEST(InputMutation, DeviceProfileRejectsOrValidatesAndSimulatesFinite) {
  std::ostringstream os;
  device::save_profile(device::make_hikey970(), os);
  const std::string profile = os.str();

  // One AlexNet split over all three components: every component's and the
  // link's values reach the result, and a closed-loop single stream keeps
  // the event count bounded whatever speeds a mutant gives the board.
  const models::ModelZoo zoo;
  const sim::NetworkList nets = {&zoo.network(models::ModelId::kAlexNet)};
  sim::Assignment split(nets[0]->num_layers(), ComponentId::kGpu);
  for (std::size_t l = split.size() / 3; l < split.size(); ++l)
    split[l] = l < 2 * split.size() / 3 ? ComponentId::kBigCpu
                                        : ComponentId::kLittleCpu;
  const sim::Mapping mapping({split});

  // Mostly number characters, so many mutants still parse and reach the
  // range checks and the simulator; a few structural ones break lines.
  const std::string charset = "00112233445566778899..eE+--= \n#[]x";
  std::size_t rejected = 0, loaded = 0;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    util::Rng rng(util::fork_stream(7007, i));
    std::istringstream is(mutate(profile, rng, charset, profile.size()));
    device::DeviceSpec spec;
    try {
      spec = device::load_profile(is);
    } catch (const std::runtime_error&) {  // malformed line, key or number
      ++rejected;
      continue;
    } catch (const std::invalid_argument&) {  // a value out of range
      ++rejected;
      continue;
    }
    ++loaded;
    EXPECT_NO_THROW(device::validate(spec)) << "mutant " << i;
    const double t = sim::DesSimulator(spec).simulate(nets, mapping)
                         .avg_throughput;
    EXPECT_TRUE(std::isfinite(t) && t >= 0.0)
        << "mutant " << i << ": T = " << t;
  }
  // The mutator must exercise both outcomes to mean anything.
  EXPECT_GT(rejected, 1000u);
  EXPECT_GT(loaded, 200u);
}

// --- Estimator files ---------------------------------------------------------

constexpr std::size_t kM = 11;
constexpr std::size_t kL = 37;

tensor::Tensor probe_input(std::size_t m, std::size_t l, util::Rng& rng) {
  tensor::Tensor x({3, m, l});
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = rng.chance(0.15) ? static_cast<float>(rng.uniform(0.1, 1.0)) : 0.0f;
  return x;
}

/// A small estimator trained for a few epochs on a synthetic set, saved.
std::string trained_estimator_bytes() {
  util::Rng rng(21);
  core::SampleSet data;
  for (std::size_t s = 0; s < 48; ++s) {
    data.inputs.push_back(probe_input(kM, kL, rng));
    data.targets.push_back({rng.uniform(1.0, 30.0), rng.uniform(1.0, 20.0),
                            rng.uniform(0.5, 8.0)});
  }
  core::EstimatorConfig config;
  config.c1 = 4;
  config.c2 = 4;
  config.c3 = 4;
  core::ThroughputEstimator est(kM, kL, config);
  nn::TrainConfig train;
  train.epochs = 3;
  est.fit(data, 8, nn::L1Loss{}, train);
  std::ostringstream os;
  est.save(os);
  return os.str();
}

TEST(InputMutation, EstimatorFileRejectsOrPredictsFiniteOrThrowsRuntimeError) {
  const std::string file = trained_estimator_bytes();
  // Magic, version, dimensions, flags, log_scale, init_seed and the three
  // target transforms: the bytes that steer every prediction at once.
  constexpr std::size_t kHeaderBytes = 4 + 8 * 9 + 48;

  std::size_t rejected = 0, finite = 0, refused = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    util::Rng rng(util::fork_stream(7008, i));
    std::istringstream is(mutate(file, rng, "", kHeaderBytes));
    std::vector<tensor::Tensor> probes;
    try {
      const core::ThroughputEstimator est = core::ThroughputEstimator::load(is);
      for (int p = 0; p < 2; ++p)
        probes.push_back(probe_input(est.models_dim(), est.layers_dim(), rng));
      std::vector<std::array<double, 3>> rates;
      for (const tensor::Tensor& x : probes) rates.push_back(est.predict(x));
      const auto batched = est.predict_batch(probes);
      for (std::size_t p = 0; p < probes.size(); ++p) {
        for (std::size_t d = 0; d < 3; ++d) {
          EXPECT_TRUE(std::isfinite(rates[p][d]))
              << "mutant " << i << ": predict = " << rates[p][d];
          EXPECT_EQ(batched[p][d], rates[p][d]) << "mutant " << i;
        }
      }
      ++finite;
    } catch (const std::runtime_error&) {
      // At load, a malformed file; after it, a non-finite prediction.
      (probes.empty() ? rejected : refused) += 1;
    }
    // Anything else (std::invalid_argument included) fails the test.
  }
  EXPECT_GT(rejected, 250u);
  EXPECT_GT(finite, 100u);
  EXPECT_GT(refused, 0u) << "no mutant reached the non-finite prediction path";
}

}  // namespace

// Device profiles: INI-style save/load of DeviceSpec — the calibration
// interface for boards other than the shipped HiKey970.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "core/cluster.hpp"
#include "device/cost_model.hpp"
#include "device/profile.hpp"
#include "models/zoo.hpp"

namespace {

using namespace omniboost;
using device::ComponentId;
using device::DeviceSpec;

TEST(DeviceProfile, RoundTripPreservesEveryField) {
  DeviceSpec original = device::make_hikey970();
  // Perturb every field so defaults cannot mask a lost key.
  original.name = "TestBoard";
  original.dram_bw_gbps = 12.5;
  original.memory_budget_bytes = 2.5e9;
  original.per_stream_overhead_bytes = 1.25e8;
  original.per_inference_overhead_s = 0.0125;
  original.link.bandwidth_gbps = 7.75;
  original.link.latency_s = 2.5e-4;
  for (std::size_t i = 0; i < device::kNumComponents; ++i) {
    auto& c = original.components[i];
    c.name = "comp" + std::to_string(i);
    c.peak_gflops = 100.0 + static_cast<double>(i);
    c.mem_bw_gbps = 10.0 + static_cast<double>(i);
    c.kernel_overhead_s = 1e-5 * static_cast<double>(i + 1);
    c.efficiency.gemm = 0.41 + 0.01 * static_cast<double>(i);
    c.efficiency.direct_conv = 0.31 + 0.01 * static_cast<double>(i);
    c.efficiency.depthwise = 0.21 + 0.01 * static_cast<double>(i);
    c.efficiency.elementwise = 0.11 + 0.01 * static_cast<double>(i);
    c.working_set_budget_bytes = 1e8 * static_cast<double>(i + 1);
    c.contention_exponent = 1.5 + 0.25 * static_cast<double>(i);
  }

  std::stringstream buf;
  device::save_profile(original, buf);
  const DeviceSpec restored = device::load_profile(buf);

  EXPECT_EQ(restored.name, original.name);
  EXPECT_DOUBLE_EQ(restored.dram_bw_gbps, original.dram_bw_gbps);
  EXPECT_DOUBLE_EQ(restored.memory_budget_bytes, original.memory_budget_bytes);
  EXPECT_DOUBLE_EQ(restored.per_stream_overhead_bytes,
                   original.per_stream_overhead_bytes);
  EXPECT_DOUBLE_EQ(restored.per_inference_overhead_s,
                   original.per_inference_overhead_s);
  EXPECT_DOUBLE_EQ(restored.link.bandwidth_gbps, original.link.bandwidth_gbps);
  EXPECT_DOUBLE_EQ(restored.link.latency_s, original.link.latency_s);
  for (std::size_t i = 0; i < device::kNumComponents; ++i) {
    const auto& a = original.components[i];
    const auto& b = restored.components[i];
    EXPECT_EQ(b.name, a.name);
    EXPECT_DOUBLE_EQ(b.peak_gflops, a.peak_gflops);
    EXPECT_DOUBLE_EQ(b.mem_bw_gbps, a.mem_bw_gbps);
    EXPECT_DOUBLE_EQ(b.kernel_overhead_s, a.kernel_overhead_s);
    EXPECT_DOUBLE_EQ(b.efficiency.gemm, a.efficiency.gemm);
    EXPECT_DOUBLE_EQ(b.efficiency.direct_conv, a.efficiency.direct_conv);
    EXPECT_DOUBLE_EQ(b.efficiency.depthwise, a.efficiency.depthwise);
    EXPECT_DOUBLE_EQ(b.efficiency.elementwise, a.efficiency.elementwise);
    EXPECT_DOUBLE_EQ(b.working_set_budget_bytes, a.working_set_budget_bytes);
    EXPECT_DOUBLE_EQ(b.contention_exponent, a.contention_exponent);
  }
}

TEST(DeviceProfile, PartialProfileKeepsHikeyDefaults) {
  std::stringstream buf(
      "# my board\n"
      "[device]\n"
      "name = CustomBoard\n"
      "dram_bw_gbps = 25.0\n"
      "[component.gpu]\n"
      "peak_gflops = 500\n");
  const DeviceSpec spec = device::load_profile(buf);
  const DeviceSpec defaults = device::make_hikey970();

  EXPECT_EQ(spec.name, "CustomBoard");
  EXPECT_DOUBLE_EQ(spec.dram_bw_gbps, 25.0);
  EXPECT_DOUBLE_EQ(spec.component(ComponentId::kGpu).peak_gflops, 500.0);
  // Untouched keys: calibrated defaults.
  EXPECT_DOUBLE_EQ(spec.memory_budget_bytes, defaults.memory_budget_bytes);
  EXPECT_DOUBLE_EQ(spec.component(ComponentId::kBigCpu).peak_gflops,
                   defaults.component(ComponentId::kBigCpu).peak_gflops);
  EXPECT_EQ(spec.component(ComponentId::kGpu).name,
            defaults.component(ComponentId::kGpu).name);
}

TEST(DeviceProfile, CommentsAndWhitespaceTolerated) {
  std::stringstream buf(
      "\n"
      "  ; full-line comment\n"
      "  [device]   \n"
      "   name =   Spacey Board  # trailing comment\n"
      "\tdram_bw_gbps\t=\t9.5\n");
  const DeviceSpec spec = device::load_profile(buf);
  EXPECT_EQ(spec.name, "Spacey Board");
  EXPECT_DOUBLE_EQ(spec.dram_bw_gbps, 9.5);
}

TEST(DeviceProfile, DiagnosesUserErrorsWithLineNumbers) {
  const auto expect_error = [](const char* text, const char* fragment) {
    std::stringstream buf(text);
    try {
      device::load_profile(buf);
      FAIL() << "no error for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expect_error("[devize]\n", "unknown section");
  expect_error("[component.npu]\n", "unknown component");
  expect_error("[device]\nmistyped_key = 1\n", "unknown [device] key");
  expect_error("[device]\ndram_bw_gbps = fast\n", "expected a number");
  expect_error("[device]\ndram_bw_gbps = 9.5x\n", "trailing characters");
  expect_error("dram_bw_gbps = 9.5\n", "outside any section");
  expect_error("[device\n", "unterminated section");
  expect_error("[link]\njust-a-token\n", "expected 'key = value'");
  // Error text carries the offending line number.
  expect_error("[device]\n\n\ndram_bw_gbps = bad\n", "line 4");
}

TEST(DeviceProfile, ValidateAcceptsEveryBuiltInAndFleetVariant) {
  const DeviceSpec hikey = device::make_hikey970();
  EXPECT_NO_THROW(device::validate(hikey));
  // Boards 0..2 are the base, -pro and -lite variants; the cycle repeats.
  for (const core::BoardSpec& board : core::make_heterogeneous_fleet(3, hikey))
    EXPECT_NO_THROW(device::validate(board.device)) << board.name;
}

TEST(DeviceProfile, OutOfRangeValuesNameTheSectionAndKey) {
  const auto expect_rejected = [](const std::string& text,
                                  const std::string& fragment) {
    std::stringstream buf(text);
    try {
      device::load_profile(buf);
      FAIL() << "no error for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expect_rejected("[component.gpu]\npeak_gflops = -5\n",
                  "[component.gpu] peak_gflops = -5 must be finite and > 0");
  expect_rejected("[component.gpu]\npeak_gflops = nan\n",
                  "[component.gpu] peak_gflops = nan");
  expect_rejected("[component.little]\neff_gemm = 1.5\n",
                  "[component.little] eff_gemm = 1.5 must be in (0, 1]");
  expect_rejected("[component.big]\nkernel_overhead_s = -1e-6\n",
                  "[component.big] kernel_overhead_s");
  expect_rejected("[device]\ndram_bw_gbps = inf\n", "[device] dram_bw_gbps");
  expect_rejected("[link]\nbandwidth_gbps = 0\n", "[link] bandwidth_gbps");
  expect_rejected("[link]\nlatency_s = -1\n",
                  "[link] latency_s = -1 must be finite and >= 0");
}

TEST(DeviceProfile, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ob_device_profile.ini")
          .string();
  DeviceSpec original = device::make_hikey970();
  original.dram_bw_gbps = 11.0;
  device::save_profile_file(original, path);
  const DeviceSpec restored = device::load_profile_file(path);
  EXPECT_DOUBLE_EQ(restored.dram_bw_gbps, 11.0);
  EXPECT_EQ(restored.name, original.name);
  std::remove(path.c_str());
}

TEST(DeviceProfile, MissingFileThrows) {
  EXPECT_THROW(device::load_profile_file("/nonexistent/board.ini"),
               std::runtime_error);
}

TEST(DeviceProfile, LoadedSpecDrivesTheSimulator) {
  // End-to-end: a profile with a crippled GPU must change scheduling
  // economics (the GPU-only mapping loses its advantage).
  std::stringstream buf(
      "[component.gpu]\n"
      "peak_gflops = 1.0\n"
      "mem_bw_gbps = 0.5\n");
  const DeviceSpec crippled = device::load_profile(buf);
  const DeviceSpec normal = device::make_hikey970();

  const device::CostModel slow(crippled);
  const device::CostModel fast(normal);
  const models::ModelZoo zoo;
  const auto& layer = zoo.network(models::ModelId::kAlexNet).layers[0];
  EXPECT_GT(slow.layer_time(layer, ComponentId::kGpu),
            fast.layer_time(layer, ComponentId::kGpu));
  // CPU timing untouched.
  EXPECT_DOUBLE_EQ(slow.layer_time(layer, ComponentId::kBigCpu),
                   fast.layer_time(layer, ComponentId::kBigCpu));
}

}  // namespace

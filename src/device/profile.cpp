#include "device/profile.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace omniboost::device {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

void write_component(std::ostream& os, const char* section,
                     const ComponentSpec& c) {
  os << "[component." << section << "]\n";
  os << "name = " << c.name << "\n";
  char buf[64];
  const auto num = [&](const char* key, double v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << key << " = " << buf << "\n";
  };
  num("peak_gflops", c.peak_gflops);
  num("mem_bw_gbps", c.mem_bw_gbps);
  num("kernel_overhead_s", c.kernel_overhead_s);
  num("eff_gemm", c.efficiency.gemm);
  num("eff_direct_conv", c.efficiency.direct_conv);
  num("eff_depthwise", c.efficiency.depthwise);
  num("eff_elementwise", c.efficiency.elementwise);
  num("working_set_budget_bytes", c.working_set_budget_bytes);
  num("contention_exponent", c.contention_exponent);
  os << "\n";
}

constexpr const char* kComponentSections[kNumComponents] = {"gpu", "big",
                                                            "little"};

}  // namespace

void save_profile(const DeviceSpec& spec, std::ostream& os) {
  char buf[64];
  const auto num = [&](const char* key, double v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << key << " = " << buf << "\n";
  };
  os << "# OmniBoost device profile\n";
  os << "[device]\n";
  os << "name = " << spec.name << "\n";
  num("dram_bw_gbps", spec.dram_bw_gbps);
  num("memory_budget_bytes", spec.memory_budget_bytes);
  num("per_stream_overhead_bytes", spec.per_stream_overhead_bytes);
  num("per_inference_overhead_s", spec.per_inference_overhead_s);
  os << "\n[link]\n";
  num("bandwidth_gbps", spec.link.bandwidth_gbps);
  num("latency_s", spec.link.latency_s);
  os << "\n";
  for (std::size_t i = 0; i < kNumComponents; ++i) {
    write_component(os, kComponentSections[i], spec.components[i]);
  }
  if (!os) throw std::runtime_error("save_profile: stream write failed");
}

void save_profile_file(const DeviceSpec& spec, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_profile_file: cannot open " + path);
  save_profile(spec, os);
}

void validate(const DeviceSpec& spec) {
  std::string section;
  const auto check = [&](bool ok, const char* key, double value,
                         const char* rule) {
    if (ok) return;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    throw std::invalid_argument("device profile: [" + section + "] " + key +
                                " = " + buf + " must be " + rule);
  };
  const auto positive = [&](const char* key, double v) {
    check(std::isfinite(v) && v > 0.0, key, v, "finite and > 0");
  };
  const auto non_negative = [&](const char* key, double v) {
    check(std::isfinite(v) && v >= 0.0, key, v, "finite and >= 0");
  };
  const auto fraction = [&](const char* key, double v) {
    check(v > 0.0 && v <= 1.0, key, v, "in (0, 1]");
  };
  section = "device";
  positive("dram_bw_gbps", spec.dram_bw_gbps);
  positive("memory_budget_bytes", spec.memory_budget_bytes);
  non_negative("per_stream_overhead_bytes", spec.per_stream_overhead_bytes);
  non_negative("per_inference_overhead_s", spec.per_inference_overhead_s);
  section = "link";
  positive("bandwidth_gbps", spec.link.bandwidth_gbps);
  non_negative("latency_s", spec.link.latency_s);
  for (std::size_t i = 0; i < kNumComponents; ++i) {
    const ComponentSpec& c = spec.components[i];
    section = std::string("component.") + kComponentSections[i];
    positive("peak_gflops", c.peak_gflops);
    positive("mem_bw_gbps", c.mem_bw_gbps);
    non_negative("kernel_overhead_s", c.kernel_overhead_s);
    fraction("eff_gemm", c.efficiency.gemm);
    fraction("eff_direct_conv", c.efficiency.direct_conv);
    fraction("eff_depthwise", c.efficiency.depthwise);
    fraction("eff_elementwise", c.efficiency.elementwise);
    positive("working_set_budget_bytes", c.working_set_budget_bytes);
    non_negative("contention_exponent", c.contention_exponent);
  }
}

DeviceSpec load_profile(std::istream& is) {
  DeviceSpec spec = make_hikey970();

  enum class Section { kNone, kDevice, kLink, kComponent };
  Section section = Section::kNone;
  std::size_t comp_index = 0;
  std::string line;
  std::size_t line_no = 0;

  const auto fail = [&](const std::string& what) {
    throw std::runtime_error("load_profile: line " + std::to_string(line_no) +
                             ": " + what);
  };

  const auto parse_double = [&](const std::string& v) {
    try {
      std::size_t pos = 0;
      const double out = std::stod(v, &pos);
      if (pos != v.size()) fail("trailing characters after number '" + v + "'");
      return out;
    } catch (const std::invalid_argument&) {
      fail("expected a number, got '" + v + "'");
    } catch (const std::out_of_range&) {
      fail("number out of range: '" + v + "'");
    }
    return 0.0;  // unreachable
  };

  while (std::getline(is, line)) {
    ++line_no;
    // Strip comments and whitespace.
    if (const auto hash = line.find_first_of("#;"); hash != std::string::npos)
      line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') fail("unterminated section header");
      const std::string name = trim(line.substr(1, line.size() - 2));
      if (name == "device") {
        section = Section::kDevice;
      } else if (name == "link") {
        section = Section::kLink;
      } else if (name.rfind("component.", 0) == 0) {
        const std::string which = name.substr(10);
        section = Section::kComponent;
        bool found = false;
        for (std::size_t i = 0; i < kNumComponents; ++i) {
          if (which == kComponentSections[i]) {
            comp_index = i;
            found = true;
            break;
          }
        }
        if (!found) fail("unknown component '" + which + "' (gpu|big|little)");
      } else {
        fail("unknown section [" + name + "]");
      }
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) fail("expected 'key = value'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) fail("empty key");

    switch (section) {
      case Section::kNone:
        fail("key '" + key + "' outside any section");
        break;
      case Section::kDevice:
        if (key == "name") {
          spec.name = value;
        } else if (key == "dram_bw_gbps") {
          spec.dram_bw_gbps = parse_double(value);
        } else if (key == "memory_budget_bytes") {
          spec.memory_budget_bytes = parse_double(value);
        } else if (key == "per_stream_overhead_bytes") {
          spec.per_stream_overhead_bytes = parse_double(value);
        } else if (key == "per_inference_overhead_s") {
          spec.per_inference_overhead_s = parse_double(value);
        } else {
          fail("unknown [device] key '" + key + "'");
        }
        break;
      case Section::kLink:
        if (key == "bandwidth_gbps") {
          spec.link.bandwidth_gbps = parse_double(value);
        } else if (key == "latency_s") {
          spec.link.latency_s = parse_double(value);
        } else {
          fail("unknown [link] key '" + key + "'");
        }
        break;
      case Section::kComponent: {
        ComponentSpec& c = spec.components[comp_index];
        if (key == "name") {
          c.name = value;
        } else if (key == "peak_gflops") {
          c.peak_gflops = parse_double(value);
        } else if (key == "mem_bw_gbps") {
          c.mem_bw_gbps = parse_double(value);
        } else if (key == "kernel_overhead_s") {
          c.kernel_overhead_s = parse_double(value);
        } else if (key == "eff_gemm") {
          c.efficiency.gemm = parse_double(value);
        } else if (key == "eff_direct_conv") {
          c.efficiency.direct_conv = parse_double(value);
        } else if (key == "eff_depthwise") {
          c.efficiency.depthwise = parse_double(value);
        } else if (key == "eff_elementwise") {
          c.efficiency.elementwise = parse_double(value);
        } else if (key == "working_set_budget_bytes") {
          c.working_set_budget_bytes = parse_double(value);
        } else if (key == "contention_exponent") {
          c.contention_exponent = parse_double(value);
        } else {
          fail("unknown [component] key '" + key + "'");
        }
        break;
      }
    }
  }
  validate(spec);
  return spec;
}

DeviceSpec load_profile_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_profile_file: cannot open " + path);
  return load_profile(is);
}

}  // namespace omniboost::device

#pragma once
/// \file profile.hpp
/// Human-editable device profiles: save/load a DeviceSpec as an INI-style
/// text file. The reproduction ships a calibrated HiKey970
/// (make_hikey970()), but the framework is board-agnostic — a user
/// calibrating a different SoC edits a profile instead of recompiling.
///
/// Format: `[section]` headers and `key = value` lines; `#`/`;` start
/// comments. Sections: [device], [link], [component.gpu],
/// [component.big], [component.little]. Keys omitted from the file keep
/// the calibrated HiKey970 defaults; unknown sections or keys are errors
/// (they are almost always typos in a calibration campaign).

#include <iosfwd>
#include <string>

#include "device/device.hpp"

namespace omniboost::device {

/// Writes \p spec as a complete profile (every key explicit).
void save_profile(const DeviceSpec& spec, std::ostream& os);
void save_profile_file(const DeviceSpec& spec, const std::string& path);

/// Parses a profile, starting from make_hikey970() defaults. Throws
/// std::runtime_error on malformed lines, unknown sections/keys, or
/// non-numeric values, and std::invalid_argument (validate()) when a value
/// is out of range.
DeviceSpec load_profile(std::istream& is);
DeviceSpec load_profile_file(const std::string& path);

/// Throws std::invalid_argument, naming the profile section and key, unless
/// every value of \p spec is in range: bandwidths, peaks, the memory and
/// working-set budgets finite and > 0; overheads, latency and contention
/// exponents finite and >= 0; kernel efficiencies in (0, 1]. A value out of
/// range would otherwise surface as a nonsense decision or a failed
/// invariant deep inside the simulator.
void validate(const DeviceSpec& spec);

}  // namespace omniboost::device

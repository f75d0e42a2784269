#pragma once
/// \file serialize.hpp
/// Binary save/load of Module parameters. The format is a self-describing
/// little-endian stream (magic + version + per-parameter shape and data), so
/// a trained estimator survives process restarts: train once at design time,
/// deploy the weight file with the run-time scheduler — exactly the paper's
/// design-time/run-time split.
///
/// Loading validates that the target module's parameter list matches the
/// stream (count, shapes), that every value is finite and that the stream
/// ends after the last tensor, and throws on any violation; it never
/// resizes parameters.

#include <iosfwd>
#include <string>

#include "nn/module.hpp"

namespace omniboost::nn {

/// Stream format version written by save_params.
inline constexpr std::uint32_t kSerializeVersion = 1;

/// Writes all parameters of \p module to \p os. Throws std::runtime_error
/// on stream failure.
void save_params(Module& module, std::ostream& os);

/// Reads parameters from \p is into \p module; \p is must end there.
/// Throws std::runtime_error on malformed input, version/shape mismatch, a
/// non-finite value, trailing bytes, or stream failure.
void load_params(Module& module, std::istream& is);

/// File-path conveniences.
void save_params_file(Module& module, const std::string& path);
void load_params_file(Module& module, const std::string& path);

}  // namespace omniboost::nn

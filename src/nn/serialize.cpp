#include "nn/serialize.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace omniboost::nn {

namespace {

constexpr char kMagic[4] = {'O', 'B', 'N', 'N'};

void write_u32(std::ostream& os, std::uint32_t v) {
  unsigned char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  os.write(reinterpret_cast<const char*>(b), 4);
}

void write_u64(std::ostream& os, std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  os.write(reinterpret_cast<const char*>(b), 8);
}

std::uint32_t read_u32(std::istream& is) {
  unsigned char b[4];
  is.read(reinterpret_cast<char*>(b), 4);
  if (!is) throw std::runtime_error("nn::load_params: truncated stream");
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

std::uint64_t read_u64(std::istream& is) {
  unsigned char b[8];
  is.read(reinterpret_cast<char*>(b), 8);
  if (!is) throw std::runtime_error("nn::load_params: truncated stream");
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

}  // namespace

namespace {

void write_tensor(std::ostream& os, const tensor::Tensor& t) {
  write_u64(os, t.rank());
  for (std::size_t d = 0; d < t.rank(); ++d) write_u64(os, t.extent(d));
  // float32 little-endian payload; portable across the platforms this
  // library targets (IEEE-754 assumed, checked at load).
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.size() * sizeof(float)));
}

/// Reads one tensor into \p t, which must already have the stream's shape.
/// \p kind and \p index name it ("parameter 3") when a value is not finite.
void read_tensor_into(std::istream& is, tensor::Tensor& t, const char* kind,
                      std::size_t index) {
  const std::uint64_t rank = read_u64(is);
  if (rank != t.rank()) {
    throw std::runtime_error("nn::load_params: tensor rank mismatch");
  }
  for (std::size_t d = 0; d < t.rank(); ++d) {
    const std::uint64_t extent = read_u64(is);
    if (extent != t.extent(d)) {
      throw std::runtime_error("nn::load_params: tensor shape mismatch");
    }
  }
  is.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(t.size() * sizeof(float)));
  if (!is) throw std::runtime_error("nn::load_params: truncated payload");
  const float* values = t.data();
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!std::isfinite(values[i])) {
      throw std::runtime_error("nn::load_params: non-finite value in " +
                               std::string(kind) + " " +
                               std::to_string(index));
    }
  }
}

}  // namespace

void save_params(Module& module, std::ostream& os) {
  const std::vector<Param*> params = module.params();
  const std::vector<tensor::Tensor*> buffers = module.buffers();
  os.write(kMagic, 4);
  write_u32(os, kSerializeVersion);
  write_u64(os, params.size());
  for (const Param* p : params) write_tensor(os, p->value);
  // Non-trainable state (BatchNorm running stats) travels with the weights:
  // without it a restored network normalizes with fresh statistics and its
  // inference outputs differ.
  write_u64(os, buffers.size());
  for (const tensor::Tensor* b : buffers) write_tensor(os, *b);
  if (!os) throw std::runtime_error("nn::save_params: stream write failed");
}

void load_params(Module& module, std::istream& is) {
  static_assert(sizeof(float) == 4, "float32 storage assumed");
  char magic[4];
  is.read(magic, 4);
  if (!is || magic[0] != kMagic[0] || magic[1] != kMagic[1] ||
      magic[2] != kMagic[2] || magic[3] != kMagic[3]) {
    throw std::runtime_error("nn::load_params: bad magic (not an OBNN file)");
  }
  const std::uint32_t version = read_u32(is);
  if (version != kSerializeVersion) {
    throw std::runtime_error("nn::load_params: unsupported version " +
                             std::to_string(version));
  }
  const std::vector<Param*> params = module.params();
  const std::uint64_t count = read_u64(is);
  if (count != params.size()) {
    throw std::runtime_error(
        "nn::load_params: parameter count mismatch (stream " +
        std::to_string(count) + ", module " + std::to_string(params.size()) +
        ")");
  }
  for (std::size_t i = 0; i < params.size(); ++i)
    read_tensor_into(is, params[i]->value, "parameter", i);

  const std::vector<tensor::Tensor*> buffers = module.buffers();
  const std::uint64_t buffer_count = read_u64(is);
  if (buffer_count != buffers.size()) {
    throw std::runtime_error("nn::load_params: buffer count mismatch (stream " +
                             std::to_string(buffer_count) + ", module " +
                             std::to_string(buffers.size()) + ")");
  }
  for (std::size_t i = 0; i < buffers.size(); ++i)
    read_tensor_into(is, *buffers[i], "buffer", i);
  if (is.peek() != std::istream::traits_type::eof()) {
    throw std::runtime_error("nn::load_params: trailing bytes after the "
                             "last tensor");
  }
}

void save_params_file(Module& module, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw std::runtime_error("nn::save_params_file: cannot open " + path);
  }
  save_params(module, os);
}

void load_params_file(Module& module, const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("nn::load_params_file: cannot open " + path);
  }
  load_params(module, is);
}

}  // namespace omniboost::nn

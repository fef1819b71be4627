/// \file buffer.h
/// \brief Device buffer objects (VBO / SSBO analogues).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace rj::gpu {

/// Kind of buffer, mirroring the OpenGL objects the paper's implementation
/// uses (§6.1): vertex buffers for point/triangle streams, shader storage
/// buffers for the result array A, textures for bound FBOs.
enum class BufferKind { kVertexBuffer, kShaderStorage, kTexture };

/// A block of simulated device memory. Contents live in host RAM, but every
/// write goes through the owning Device's metered Upload, so benches can
/// report the host→device transfer component (Fig. 9/11/13 breakdowns).
/// The storage starts uninitialized: every buffer is fully written by its
/// upload before anything reads it.
class Buffer {
 public:
  Buffer(BufferKind kind, std::size_t bytes)
      : kind_(kind), size_(bytes), data_(new std::uint8_t[bytes]) {}

  BufferKind kind() const { return kind_; }
  std::size_t size() const { return size_; }

  const std::uint8_t* data() const { return data_.get(); }

 private:
  friend class Device;  // the only writer (Device::Upload)

  BufferKind kind_;
  std::size_t size_;
  std::unique_ptr<std::uint8_t[]> data_;
};

}  // namespace rj::gpu

// The fixed-capacity wire frame: the paper's constant message size bound,
// realised as a value type.
//
// The paper's scalability argument assumes "all messages sent over the
// network are constant size bounded" (§2). Earlier revisions modelled that
// bound with a heap-allocated byte vector validated at construction; the
// bound now *is* the representation: a Frame owns an inline 256-byte buffer
// and a length, so a message costs a few cache lines to copy and zero heap
// allocations to build, send, duplicate, or deliver. Oversized payloads are
// impossible by construction, not merely rejected.
//
// This header is a dependency leaf (standard library + ensure.h only) so the
// codec layer and the simulator's typed event queue can both hold frames
// without pulling in the rest of src/net.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "src/common/ensure.h"

namespace gridbox::net {

/// Maximum payload size in bytes. A constant chosen to hold a small, fixed
/// handful of votes or composable partials plus addressing headers — the
/// paper's requirement is a *constant* bound independent of N ("the byte-size
/// of the function f's output is not much larger than the byte-size of an
/// individual vote", §1), which a 256-byte frame satisfies for every message
/// any protocol here sends.
inline constexpr std::size_t kMaxPayloadBytes = 256;

/// A wire payload with inline storage: up to kMaxPayloadBytes bytes and a
/// length, no heap. Copying a Frame is a fixed-size memcpy, which is what
/// makes chaos duplication and in-queue delivery events allocation-free.
class Frame {
 public:
  /// An empty frame (size 0).
  Frame() = default;

  /// Copies `size` bytes from `data`. Throws PreconditionError when `size`
  /// exceeds the constant bound — the transport-boundary enforcement that
  /// keeps a protocol from silently shipping a growing digest.
  Frame(const std::uint8_t* data, std::size_t size) { assign(data, size); }

  /// Convenience for tests and setup code that already has a byte vector.
  explicit Frame(const std::vector<std::uint8_t>& bytes)
      : Frame(bytes.data(), bytes.size()) {}

  Frame(std::initializer_list<std::uint8_t> bytes)
      : Frame(bytes.begin(), bytes.size()) {}

  /// Replaces the contents with `size` bytes from `data` in place, copying
  /// only those bytes (and re-zeroing any the old contents held past them),
  /// so a receive path can reuse one frame for every record it delivers.
  /// Throws PreconditionError past the bound, as the constructor does.
  void assign(const std::uint8_t* data, std::size_t size) {
    expects(size <= kMaxPayloadBytes,
            "payload exceeds the constant message size bound");
    if (size < size_) std::memset(bytes_.data() + size, 0, size_ - size);
    if (size > 0) std::memcpy(bytes_.data(), data, size);
    size_ = static_cast<std::uint16_t>(size);
  }

  [[nodiscard]] const std::uint8_t* data() const { return bytes_.data(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Unchecked byte access; `i` must be < size().
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const {
    return bytes_[i];
  }

  [[nodiscard]] const std::uint8_t* begin() const { return bytes_.data(); }
  [[nodiscard]] const std::uint8_t* end() const { return bytes_.data() + size_; }

  /// Appends `n` bytes, space permitting; returns false (and appends
  /// nothing) when the frame is full. The codec's ByteWriter layers its
  /// field-level overflow diagnostics on top of this primitive.
  [[nodiscard]] bool try_append(const void* src, std::size_t n) {
    if (size_ + n > kMaxPayloadBytes) return false;
    std::memcpy(bytes_.data() + size_, src, n);
    size_ = static_cast<std::uint16_t>(size_ + n);
    return true;
  }

  friend bool operator==(const Frame& a, const Frame& b) {
    return a.size_ == b.size_ &&
           std::memcmp(a.bytes_.data(), b.bytes_.data(), a.size_) == 0;
  }

 private:
  std::uint16_t size_ = 0;
  /// Zero-initialised so padding beyond size() is deterministic: copying or
  /// hashing a whole frame can never observe indeterminate bytes.
  std::array<std::uint8_t, kMaxPayloadBytes> bytes_{};
};

}  // namespace gridbox::net

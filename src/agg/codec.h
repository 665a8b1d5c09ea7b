// Byte-level serialization for protocol messages.
//
// Little-endian, fixed-width primitives; no varints (message sizes must be
// statically predictable to honour the constant size bound). ByteWriter /
// ByteReader are deliberately dumb: each protocol composes its own message
// layout from them, and the Partial codec below is shared by all.
//
// Both ends operate on net::Frame, the fixed 256-byte inline wire buffer:
// encoding writes fields into the frame in place and decoding reads straight
// out of the delivered frame, so the steady-state message path performs zero
// heap allocations (asserted by the counting-allocator tests).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "src/agg/aggregate.h"
#include "src/common/ensure.h"
#include "src/net/frame.h"

namespace gridbox::agg {

/// Builds one frame. Writes are bounds-checked at encode time: a protocol
/// message that would exceed the constant size bound throws
/// PreconditionError naming the field that overflowed — the failure surfaces
/// where the oversized layout was composed, not later at the transport. The
/// primitives are inline (every gossip entry is several of them); only the
/// overflow diagnostic is out of line.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { append(&v, sizeof v, "u8"); }
  void u32(std::uint32_t v) { little_endian(v, "u32"); }
  void u64(std::uint64_t v) { little_endian(v, "u64"); }
  void f64(double v) { little_endian(std::bit_cast<std::uint64_t>(v), "f64"); }

  /// Returns the built frame and resets the writer to empty for reuse.
  [[nodiscard]] net::Frame take() {
    net::Frame out = frame_;
    frame_ = net::Frame{};
    return out;
  }

  [[nodiscard]] std::size_t size() const { return frame_.size(); }

 private:
  template <typename U>
  void little_endian(U v, const char* field) {
    std::uint8_t buf[sizeof(U)];
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    append(buf, sizeof buf, field);
  }

  void append(const void* src, std::size_t n, const char* field) {
    if (!frame_.try_append(src, n)) [[unlikely]] overflow(n, field);
  }

  /// Cold path: throws the diagnostic naming `field` and its offset.
  [[noreturn]] void overflow(std::size_t n, const char* field) const;

  net::Frame frame_;
};

/// Throws PreconditionError on truncated input (a malformed message must
/// never crash a node — callers catch and drop). The frame (or buffer) must
/// outlive the reader.
class ByteReader {
 public:
  explicit ByteReader(const net::Frame& frame)
      : data_(frame.data()), size_(frame.size()) {}
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  [[nodiscard]] std::uint32_t u32() { return little_endian<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return little_endian<std::uint64_t>(); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  [[nodiscard]] bool exhausted() const { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  void need(std::size_t n) const {
    expects(pos_ + n <= size_, "truncated message");
  }

  template <typename U>
  [[nodiscard]] U little_endian() {
    need(sizeof(U));
    U v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      v |= static_cast<U>(data_[pos_++]) << (8 * i);
    }
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Fixed 36-byte encoding of a Partial (u32 count + 4 f64 moments).
inline constexpr std::size_t kPartialWireBytes = 36;

void write_partial(ByteWriter& w, const Partial& p);
[[nodiscard]] Partial read_partial(ByteReader& r);

}  // namespace gridbox::agg

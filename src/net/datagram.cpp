#include "src/net/datagram.h"

#include <cstring>

namespace gridbox::net {

namespace {

void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v & 0xff);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v & 0xff);
  p[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
  p[2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
  p[3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
}

[[nodiscard]] std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

[[nodiscard]] std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Checks the header fields of the record at `data`; on kOk,
/// `payload_len` holds its claimed payload size.
DecodeError check_header(const std::uint8_t* data, std::size_t size,
                         std::uint16_t& payload_len) {
  if (size < kDatagramHeaderBytes) return DecodeError::kTooShort;
  if (get_u32(data) != kDatagramMagic) return DecodeError::kBadMagic;
  if (data[4] != kDatagramVersion) return DecodeError::kBadVersion;
  if (data[5] != 0) return DecodeError::kBadReserved;
  payload_len = get_u16(data + 6);
  if (payload_len > kMaxPayloadBytes) return DecodeError::kOversizePayload;
  return DecodeError::kOk;
}

}  // namespace

const char* to_string(DecodeError error) {
  switch (error) {
    case DecodeError::kOk: return "ok";
    case DecodeError::kTooShort: return "too-short";
    case DecodeError::kBadMagic: return "bad-magic";
    case DecodeError::kBadVersion: return "bad-version";
    case DecodeError::kBadReserved: return "bad-reserved";
    case DecodeError::kOversizePayload: return "oversize-payload";
    case DecodeError::kLengthMismatch: return "length-mismatch";
  }
  return "unknown";
}

std::size_t encode_datagram(const Message& message, std::uint8_t* buffer) {
  put_u32(buffer, kDatagramMagic);
  buffer[4] = kDatagramVersion;
  buffer[5] = 0;
  put_u16(buffer + 6, static_cast<std::uint16_t>(message.frame.size()));
  put_u32(buffer + 8, message.source.value());
  put_u32(buffer + 12, message.destination.value());
  if (!message.frame.empty()) {
    std::memcpy(buffer + kDatagramHeaderBytes, message.frame.data(),
                message.frame.size());
  }
  return kDatagramHeaderBytes + message.frame.size();
}

DecodeError decode_datagram(const std::uint8_t* data, std::size_t size,
                            Message& out) {
  std::uint16_t payload_len = 0;
  const DecodeError error = check_header(data, size, payload_len);
  if (error != DecodeError::kOk) return error;
  if (size != kDatagramHeaderBytes + payload_len) {
    return DecodeError::kLengthMismatch;
  }
  (void)read_record(data, out);
  return DecodeError::kOk;
}

std::size_t record_size(const std::uint8_t* data, std::size_t size) {
  std::uint16_t payload_len = 0;
  if (check_header(data, size, payload_len) != DecodeError::kOk ||
      kDatagramHeaderBytes + payload_len > size) {
    return 0;
  }
  return kDatagramHeaderBytes + payload_len;
}

std::size_t count_records(const std::uint8_t* data, std::size_t size) {
  if (size > kMaxDatagramBytes) return 0;
  std::size_t records = 0;
  for (std::size_t at = 0; at < size; ++records) {
    const std::size_t record = record_size(data + at, size - at);
    if (record == 0) return 0;
    at += record;
  }
  return records;
}

std::size_t read_record(const std::uint8_t* data, Message& out) {
  const std::uint16_t payload_len = get_u16(data + 6);
  out.source = MemberId(get_u32(data + 8));
  out.destination = MemberId(get_u32(data + 12));
  out.frame.assign(data + kDatagramHeaderBytes, payload_len);
  return kDatagramHeaderBytes + payload_len;
}

}  // namespace gridbox::net

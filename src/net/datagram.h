// The UDP wire encoding of net::Messages.
//
// A datagram is one or more records back to back. A record is a fixed
// 16-byte header followed by one frame's payload:
//
//   offset  size  field
//        0     4  magic        0x47'52'42'58 ("GRBX", little-endian u32)
//        4     1  version      1
//        5     1  reserved     0
//        6     2  payload_len  little-endian u16, <= net::kMaxPayloadBytes
//        8     4  source       little-endian u32 member id
//       12     4  destination  little-endian u32 member id
//       16     n  payload      exactly payload_len frame bytes
//
// A sender packs every frame bound for one socket in one flush into as
// few datagrams as fit, each at most kMaxDatagramBytes: 65507 bytes, the
// largest IPv4 UDP payload. Every address a mesh holds is on loopback,
// whose 65536-byte MTU carries such a datagram unfragmented, so one flush
// is one datagram per peer socket. (A mesh spanning hosts would need the
// path MTU instead: 1472 bytes on Ethernet.)
//
// Decoding is strict and all-or-nothing. encode_datagram/decode_datagram
// are the one-record codec: decode requires the buffer to be exactly
// kDatagramHeaderBytes + payload_len. count_records splits a whole
// datagram, and a datagram that does not split exactly into well-formed
// records (truncated, padded, oversize, or any bad header) is malformed as
// a whole: none of its records are delivered, never partially accepted.
// Once count_records has accepted a datagram, read_record walks it without
// checking any header again.
// That mirrors SimNetwork's contract ("never corrupts silently"): a
// receiver either delivers the frame bytes unchanged or counts the
// datagram malformed.
//
// Free functions over raw buffers, deliberately socket-free: the decode
// fuzz tests (tests/test_udp_fuzz.cpp) drive this exact code path with
// arbitrary byte soup and no file descriptors in sight.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/net/message.h"

namespace gridbox::net {

inline constexpr std::size_t kDatagramHeaderBytes = 16;
inline constexpr std::size_t kMaxRecordBytes =
    kDatagramHeaderBytes + kMaxPayloadBytes;
/// The most bytes one datagram carries (see the file comment).
inline constexpr std::size_t kMaxDatagramBytes = 65507;
inline constexpr std::uint32_t kDatagramMagic = 0x47524258;  // "GRBX"
inline constexpr std::uint8_t kDatagramVersion = 1;

/// Why a buffer failed to decode (kOk = it decoded).
enum class DecodeError : std::uint8_t {
  kOk = 0,
  kTooShort = 1,        ///< fewer than kDatagramHeaderBytes bytes
  kBadMagic = 2,        ///< magic mismatch: not a gridbox datagram
  kBadVersion = 3,      ///< version this decoder does not speak
  kBadReserved = 4,     ///< reserved byte nonzero
  kOversizePayload = 5, ///< header claims more than kMaxPayloadBytes
  kLengthMismatch = 6,  ///< total size != header bytes + claimed payload
};

[[nodiscard]] const char* to_string(DecodeError error);

/// Writes the record for `message` into `buffer`, which must hold at
/// least kMaxRecordBytes. Returns the number of bytes written
/// (kDatagramHeaderBytes + frame size).
[[nodiscard]] std::size_t encode_datagram(const Message& message,
                                          std::uint8_t* buffer);

/// Parses `size` bytes at `data` into `out`. Returns kOk and fills `out`
/// only when the buffer is exactly one well-formed record; on any error
/// `out` is untouched. Never reads past `data + size` and never throws —
/// this is the boundary where untrusted network bytes enter the process.
[[nodiscard]] DecodeError decode_datagram(const std::uint8_t* data,
                                          std::size_t size, Message& out);

/// The size (header plus payload) of the well-formed record at the head
/// of `size` bytes at `data`, or 0 when the head is not one.
[[nodiscard]] std::size_t record_size(const std::uint8_t* data,
                                      std::size_t size);

/// The number of records a datagram of `size` bytes splits into exactly,
/// or 0 when it does not: empty, over kMaxDatagramBytes, or any record
/// malformed or cut short. Never reads past `data + size`.
[[nodiscard]] std::size_t count_records(const std::uint8_t* data,
                                        std::size_t size);

/// Reads the record at `data` into `out`, copying only its payload bytes,
/// and returns the record's size. Unchecked: `data` must start a record of
/// a datagram count_records accepted.
std::size_t read_record(const std::uint8_t* data, Message& out);

}  // namespace gridbox::net

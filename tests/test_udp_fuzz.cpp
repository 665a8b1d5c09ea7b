// Datagram-decode fuzz (gridbox_chaos_tests): byte soup into the exact
// decode path UdpTransport::on_readable runs. Four corpora, all seeded
// through the repo Rng so every failure replays from a seed alone:
//
//   1. uniformly random buffers of 0–512 bytes (most fail the magic check),
//   2. mutated valid datagrams — truncated, extended, and bit-flipped, so
//      inputs concentrate on the accept/reject boundary instead of dying
//      at the first header field,
//   3. the same corpus pushed through UdpTransport::on_readable via a
//      scripted recvmmsg hook, asserting the malformed counter accounts for
//      every rejected buffer and nothing crashes,
//   4. packed datagrams — 1..40 valid records, or enough to fill
//      kMaxDatagramBytes exactly — whole, truncated, extended, or
//      bit-flipped in one record's header, through the record walker and
//      through on_readable: a well-formed pack delivers every record in
//      order and byte-identical, anything else is exactly one malformed and
//      nothing delivered; and a pack one byte over the cap is rejected
//      whole.
//
// The binary runs under whatever sanitizers the build enables (the chaos
// suite is exercised under ASan/UBSan in CI); "no crash, no UB" is the
// property, the EXPECTs are the accounting on top.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/net/datagram.h"
#include "src/net/reactor.h"
#include "src/net/udp_transport.h"

namespace gridbox {
namespace {

constexpr std::size_t kFuzzBufferMax = 512;  // ISSUE: 0–512-byte inputs

[[nodiscard]] std::vector<std::uint8_t> random_buffer(Rng& rng,
                                                      std::size_t max_size) {
  const auto size = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::uint64_t>(max_size)));
  std::vector<std::uint8_t> bytes(size);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return bytes;
}

[[nodiscard]] std::vector<std::uint8_t> valid_datagram(Rng& rng) {
  const auto payload = static_cast<std::size_t>(
      rng.uniform_int(0, net::kMaxPayloadBytes));
  std::vector<std::uint8_t> body(payload);
  for (auto& b : body) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const net::Message message{
      MemberId(static_cast<std::uint32_t>(rng.uniform_int(0, (1u << 20) - 1))),
      MemberId(static_cast<std::uint32_t>(rng.uniform_int(0, (1u << 20) - 1))),
      net::Frame(body.data(), body.size())};
  std::vector<std::uint8_t> bytes(net::kMaxRecordBytes);
  bytes.resize(net::encode_datagram(message, bytes.data()));
  return bytes;
}

/// Truncate, extend with junk, or flip bits — the mutations a hostile or
/// broken peer actually produces.
[[nodiscard]] std::vector<std::uint8_t> mutated_datagram(Rng& rng) {
  std::vector<std::uint8_t> bytes = valid_datagram(rng);
  switch (rng.uniform_int(0, 2)) {
    case 0:  // truncate anywhere, including to zero
      bytes.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::uint64_t>(bytes.size()))));
      break;
    case 1: {  // append 1..(512 - size) junk bytes
      const std::size_t room = kFuzzBufferMax - bytes.size();
      const auto extra = static_cast<std::size_t>(
          rng.uniform_int(1, room > 0 ? room : 1));
      for (std::size_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
      }
      break;
    }
    default: {  // flip 1..8 random bits
      const auto flips = rng.uniform_int(1, 8);
      for (std::uint64_t i = 0; i < flips && !bytes.empty(); ++i) {
        const std::size_t at = rng.index(bytes.size());
        bytes[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      }
      break;
    }
  }
  return bytes;
}

/// Decode must never crash, and an accepted buffer must be internally
/// consistent: exact framing and a frame that re-encodes to the input.
void check_decode(const std::vector<std::uint8_t>& bytes) {
  net::Message out;
  const net::DecodeError error =
      net::decode_datagram(bytes.data(), bytes.size(), out);
  if (error != net::DecodeError::kOk) return;
  ASSERT_EQ(bytes.size(), net::kDatagramHeaderBytes + out.frame.size());
  std::uint8_t reencoded[net::kMaxRecordBytes];
  const std::size_t size = net::encode_datagram(out, reencoded);
  ASSERT_EQ(size, bytes.size());
  ASSERT_EQ(std::memcmp(reencoded, bytes.data(), size), 0)
      << "accepted datagram does not round-trip";
}

TEST(DatagramFuzz, RandomBuffersNeverCrashTheDecoder) {
  Rng rng{0xF022001};
  std::uint64_t accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto bytes = random_buffer(rng, kFuzzBufferMax);
    check_decode(bytes);
    net::Message out;
    if (net::decode_datagram(bytes.data(), bytes.size(), out) ==
        net::DecodeError::kOk) {
      ++accepted;
    }
  }
  // A 4-byte magic + version + reserved gate makes random acceptance
  // astronomically unlikely; nonzero means the gate rotted.
  EXPECT_EQ(accepted, 0u);
}

TEST(DatagramFuzz, MutatedDatagramsNeverCrashTheDecoder) {
  Rng rng{0xF022002};
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto bytes = mutated_datagram(rng);
    check_decode(bytes);
    net::Message out;
    if (net::decode_datagram(bytes.data(), bytes.size(), out) ==
        net::DecodeError::kOk) {
      ++accepted;  // e.g. bit flips confined to the payload — legal
    } else {
      ++rejected;
    }
  }
  // The corpus must exercise both sides of the boundary to mean anything.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

/// Valid records for members 0..7 packed back to back, with the messages
/// they encode: 1..40 records, or in one pack of eight as many as fill the
/// datagram cap exactly, so the extend mutation also crosses the cap.
struct Pack {
  std::vector<std::uint8_t> bytes;
  std::vector<net::Message> messages;
  std::vector<std::size_t> boundaries;  ///< end offset of each record
};

[[nodiscard]] Pack packed_datagram(Rng& rng) {
  Pack pack;
  const bool to_cap = rng.uniform_int(0, 7) == 0;
  const auto want = to_cap ? ~std::uint64_t{0} : rng.uniform_int(1, 40);
  std::uint8_t record[net::kMaxRecordBytes];
  std::uint8_t body[net::kMaxPayloadBytes];
  while (pack.messages.size() < want &&
         pack.bytes.size() < net::kMaxDatagramBytes) {
    auto payload = static_cast<std::size_t>(
        rng.uniform_int(0, net::kMaxPayloadBytes));
    if (to_cap) {
      const std::size_t room = net::kMaxDatagramBytes - pack.bytes.size();
      if (room <= net::kMaxRecordBytes) {
        payload = room - net::kDatagramHeaderBytes;  // lands on the cap
      } else if (room - net::kDatagramHeaderBytes - payload <
                 net::kDatagramHeaderBytes) {
        payload = room - 2 * net::kDatagramHeaderBytes;  // room for one more
      }
    }
    for (std::size_t at = 0; at < payload; at += 8) {
      const std::uint64_t draw = rng.uniform_int(0, ~std::uint64_t{0});
      std::memcpy(body + at, &draw, std::min<std::size_t>(8, payload - at));
    }
    const net::Message message{
        MemberId(static_cast<std::uint32_t>(rng.uniform_int(0, 1u << 20))),
        MemberId(static_cast<std::uint32_t>(rng.uniform_int(0, 7))),
        net::Frame(body, payload)};
    const std::size_t size = net::encode_datagram(message, record);
    if (pack.bytes.size() + size > net::kMaxDatagramBytes) break;
    pack.bytes.insert(pack.bytes.end(), record, record + size);
    pack.messages.push_back(message);
    pack.boundaries.push_back(pack.bytes.size());
  }
  return pack;
}

enum class PackMutation { kNone, kTruncate, kExtend, kHeaderFlip };

/// Applies `mutation` to `pack` and returns how many leading records must
/// still be delivered (0: the datagram must be rejected whole), or -1
/// when either outcome is legal (a flipped length can re-split a pack into
/// other well-formed records).
[[nodiscard]] int mutate_pack(Rng& rng, PackMutation mutation, Pack& pack) {
  std::vector<std::uint8_t>& bytes = pack.bytes;
  switch (mutation) {
    case PackMutation::kNone:
      return static_cast<int>(pack.messages.size());
    case PackMutation::kTruncate: {  // cut anywhere short of the end
      const auto cut = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::uint64_t>(bytes.size() - 1)));
      bytes.resize(cut);
      // A cut on a record boundary leaves a well-formed, shorter pack.
      const auto at = std::find(pack.boundaries.begin(),
                                pack.boundaries.end(), cut);
      return at == pack.boundaries.end()
                 ? 0
                 : static_cast<int>(at - pack.boundaries.begin()) + 1;
    }
    case PackMutation::kExtend: {  // 1..64 junk bytes, maybe past the cap
      const auto extra = rng.uniform_int(1, 64);
      for (std::uint64_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
      }
      return 0;
    }
    case PackMutation::kHeaderFlip: {  // one bit of magic..payload_len
      const std::size_t record = rng.index(pack.boundaries.size());
      const std::size_t start = record == 0 ? 0 : pack.boundaries[record - 1];
      const std::size_t at = start + rng.index(8);
      bytes[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      return at - start < 6 ? 0 : -1;
    }
  }
  return 0;
}

TEST(DatagramFuzz, PackedDatagramsSplitWholeOrNotAtAll) {
  Rng rng{0xF022004};
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    Pack pack = packed_datagram(rng);
    const auto mutation = static_cast<PackMutation>(rng.uniform_int(0, 3));
    const int expect = mutate_pack(rng, mutation, pack);
    const std::size_t records =
        net::count_records(pack.bytes.data(), pack.bytes.size());
    if (expect >= 0) {
      ASSERT_EQ(records, static_cast<std::size_t>(expect))
          << "mutation " << static_cast<int>(mutation) << " at case " << i;
    }
    if (records == 0) {
      ++rejected;
      continue;
    }
    ++accepted;
    // Accepted: the records tile the buffer and re-encode to it exactly,
    // and where the oracle knows them, they are the packed messages.
    std::size_t at = 0;
    for (std::size_t r = 0; r < records; ++r) {
      const std::size_t size =
          net::record_size(pack.bytes.data() + at, pack.bytes.size() - at);
      net::Message out;
      ASSERT_EQ(net::decode_datagram(pack.bytes.data() + at, size, out),
                net::DecodeError::kOk);
      std::uint8_t reencoded[net::kMaxRecordBytes];
      ASSERT_EQ(net::encode_datagram(out, reencoded), size);
      ASSERT_EQ(std::memcmp(reencoded, pack.bytes.data() + at, size), 0);
      if (expect >= 0) {
        ASSERT_TRUE(out.frame == pack.messages[r].frame);
        ASSERT_EQ(out.source, pack.messages[r].source);
        ASSERT_EQ(out.destination, pack.messages[r].destination);
      }
      at += size;
    }
    ASSERT_EQ(at, pack.bytes.size());
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

/// Keeps the messages of the current case and counts every delivery.
class RecordingEndpoint final : public net::Endpoint {
 public:
  void on_message(const net::Message& message) override {
    messages_.push_back(message);
    ++delivered_;
  }
  std::vector<net::Message> messages_;
  std::uint64_t delivered_ = 0;
};

TEST(DatagramFuzz, ReceivePathDeliversPacksWholeOrNotAtAll) {
  net::Reactor reactor(net::Reactor::Options{});
  net::UdpTransport::Options topt;
  topt.port_base = 50050;
  net::UdpTransport transport(reactor, topt);
  RecordingEndpoint endpoint;
  for (std::uint32_t m = 0; m < 8; ++m) transport.attach(MemberId{m}, endpoint);

  Rng rng{0xF022005};
  Pack pack;
  bool queued = false;  // one scripted datagram per on_readable call
  net::UdpTransport::Hooks hooks;
  hooks.recv_batch = [&pack, &queued](int, mmsghdr* msgs, unsigned) -> int {
    if (!queued) {
      errno = EAGAIN;
      return -1;
    }
    queued = false;
    const iovec& iov = msgs[0].msg_hdr.msg_iov[0];
    const std::size_t n = std::min(iov.iov_len, pack.bytes.size());
    if (n > 0) std::memcpy(iov.iov_base, pack.bytes.data(), n);
    msgs[0].msg_len = static_cast<unsigned>(n);
    return 1;
  };
  transport.set_hooks(std::move(hooks));

  for (int i = 0; i < 5000; ++i) {
    pack = packed_datagram(rng);
    const auto mutation = static_cast<PackMutation>(rng.uniform_int(0, 3));
    const int expect = mutate_pack(rng, mutation, pack);
    const std::uint64_t malformed = transport.stats().messages_malformed;
    endpoint.messages_.clear();
    queued = true;
    transport.on_readable(transport.fd());
    const std::uint64_t bad = transport.stats().messages_malformed - malformed;
    const std::size_t got = endpoint.messages_.size();
    // All or nothing: one malformed and no frame, or every frame and no
    // malformed.
    ASSERT_TRUE((bad == 1 && got == 0) || (bad == 0 && got > 0))
        << "case " << i << ": " << bad << " malformed, " << got
        << " delivered";
    if (expect < 0) continue;
    ASSERT_EQ(got, static_cast<std::size_t>(expect)) << "case " << i;
    for (std::size_t r = 0; r < got; ++r) {
      const net::Message& out = endpoint.messages_[r];
      ASSERT_TRUE(out.frame == pack.messages[r].frame) << "case " << i;
      ASSERT_EQ(out.source, pack.messages[r].source);
      ASSERT_EQ(out.destination, pack.messages[r].destination);
    }
  }
  EXPECT_EQ(transport.stats().messages_delivered, endpoint.delivered_);
  EXPECT_EQ(transport.stats().messages_dead_dest, 0u);
}

/// Full-size records tiling exactly `size` bytes; the last one is shorter.
[[nodiscard]] std::vector<std::uint8_t> tiled_datagram(std::size_t size) {
  std::vector<std::uint8_t> bytes;
  std::uint8_t record[net::kMaxRecordBytes];
  const std::vector<std::uint8_t> body(net::kMaxPayloadBytes, 0xC4);
  while (bytes.size() < size) {
    const std::size_t payload = std::min(
        net::kMaxPayloadBytes,
        size - bytes.size() - net::kDatagramHeaderBytes);
    const std::size_t n = net::encode_datagram(
        net::Message{MemberId{1}, MemberId{0}, net::Frame(body.data(), payload)},
        record);
    bytes.insert(bytes.end(), record, record + n);
  }
  return bytes;
}

TEST(DatagramFuzz, ReceivePathAcceptsTheCapAndRejectsOneByteMoreWhole) {
  net::Reactor reactor(net::Reactor::Options{});
  net::UdpTransport::Options topt;
  topt.port_base = 50100;
  net::UdpTransport transport(reactor, topt);
  RecordingEndpoint endpoint;
  transport.attach(MemberId{0}, endpoint);

  std::vector<std::uint8_t> pending;
  net::UdpTransport::Hooks hooks;
  hooks.recv_batch = [&pending](int, mmsghdr* msgs, unsigned) -> int {
    if (pending.empty()) {
      errno = EAGAIN;
      return -1;
    }
    const iovec& iov = msgs[0].msg_hdr.msg_iov[0];
    const std::size_t n = std::min(iov.iov_len, pending.size());
    std::memcpy(iov.iov_base, pending.data(), n);
    msgs[0].msg_len = static_cast<unsigned>(n);
    pending.clear();
    return 1;
  };
  transport.set_hooks(std::move(hooks));

  // Every record is well formed in both; only the total size differs.
  const auto at_cap = tiled_datagram(net::kMaxDatagramBytes);
  const auto over_cap = tiled_datagram(net::kMaxDatagramBytes + 1);
  ASSERT_EQ(at_cap.size(), net::kMaxDatagramBytes);
  ASSERT_EQ(over_cap.size(), net::kMaxDatagramBytes + 1);
  const std::size_t records = net::count_records(at_cap.data(), at_cap.size());
  ASSERT_GT(records, 200u);
  EXPECT_EQ(net::count_records(over_cap.data(), over_cap.size()), 0u);

  pending = at_cap;
  transport.on_readable(transport.fd());
  EXPECT_EQ(endpoint.delivered_, records);
  EXPECT_EQ(transport.stats().messages_malformed, 0u);

  pending = over_cap;
  transport.on_readable(transport.fd());
  EXPECT_EQ(endpoint.delivered_, records) << "an oversize datagram leaked";
  EXPECT_EQ(transport.stats().messages_malformed, 1u);
}

class NullEndpoint final : public net::Endpoint {
 public:
  void on_message(const net::Message&) override { ++delivered_; }
  std::uint64_t delivered_ = 0;
};

TEST(DatagramFuzz, ReceivePathAccountsForEveryFuzzedBuffer) {
  net::Reactor reactor(net::Reactor::Options{});
  net::UdpTransport::Options topt;
  topt.port_base = 50000;
  topt.max_drain = 1;  // one scripted buffer per on_readable call
  net::UdpTransport transport(reactor, topt);
  NullEndpoint endpoint;
  transport.attach(MemberId{0}, endpoint);
  const int fd = transport.fd();

  Rng rng{0xF022003};
  std::vector<std::uint8_t> pending;
  net::UdpTransport::Hooks hooks;
  hooks.recv_batch = [&pending](int, mmsghdr* msgs, unsigned) -> int {
    const iovec& iov = msgs[0].msg_hdr.msg_iov[0];
    const std::size_t n = std::min(iov.iov_len, pending.size());
    if (n > 0) std::memcpy(iov.iov_base, pending.data(), n);
    msgs[0].msg_len = static_cast<unsigned>(n);
    return 1;
  };
  transport.set_hooks(std::move(hooks));

  std::uint64_t fed = 0;
  for (int i = 0; i < 20000; ++i) {
    pending = (i % 2 == 0) ? random_buffer(rng, kFuzzBufferMax)
                           : mutated_datagram(rng);
    transport.on_readable(fd);
    ++fed;
    const auto& stats = transport.stats();
    // Conservation: every buffer lands in exactly one bucket. (A buffer
    // longer than the recv buffer is truncated by the hook exactly as a
    // kernel recv would truncate an oversize datagram — still counted.)
    ASSERT_EQ(stats.messages_malformed + stats.messages_delivered +
                  stats.messages_dead_dest,
              fed);
  }
  EXPECT_GT(transport.stats().messages_malformed, 0u);
  EXPECT_EQ(endpoint.delivered_,
            transport.stats().messages_delivered);
}

}  // namespace
}  // namespace gridbox

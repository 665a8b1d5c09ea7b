// Datagram-decode fuzz (gridbox_chaos_tests): byte soup into the exact
// decode path UdpTransport::on_readable runs. Three corpora, all seeded
// through the repo Rng so every failure replays from a seed alone:
//
//   1. uniformly random buffers of 0–512 bytes (most fail the magic check),
//   2. mutated valid datagrams — truncated, extended, and bit-flipped, so
//      inputs concentrate on the accept/reject boundary instead of dying
//      at the first header field,
//   3. the same corpus pushed through UdpTransport::on_readable via a
//      scripted recvmmsg hook, asserting the malformed counter accounts for
//      every rejected buffer and nothing crashes.
//
// The binary runs under whatever sanitizers the build enables (the chaos
// suite is exercised under ASan/UBSan in CI); "no crash, no UB" is the
// property, the EXPECTs are the accounting on top.
#include <gtest/gtest.h>

#include <algorithm>
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
  std::vector<std::uint8_t> bytes(net::kMaxDatagramBytes);
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
  std::uint8_t reencoded[net::kMaxDatagramBytes];
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

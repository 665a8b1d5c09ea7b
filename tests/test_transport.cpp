// The net::Transport seam and the strict UDP datagram codec.
//
// SimNetwork and UdpTransport implement the same interface; these tests pin
// the interface-level contract on the simulated side (polymorphic use,
// dead-destination and malformed accounting through a Transport&) and the
// codec's encode/decode round-trip plus its strictness: a datagram is
// accepted only when every header field checks out AND the total size
// matches the claimed payload exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/net/datagram.h"
#include "src/net/fault_model.h"
#include "src/net/latency_model.h"
#include "src/net/network.h"
#include "src/net/transport.h"
#include "src/sim/simulator.h"

namespace gridbox {
namespace {

class CountingEndpoint final : public net::Endpoint {
 public:
  void on_message(const net::Message& message) override {
    ++received_;
    last_ = message;
  }
  std::uint64_t received_ = 0;
  net::Message last_;
};

TEST(Transport, SimNetworkDispatchesThroughTheInterface) {
  sim::Simulator sim;
  net::SimNetwork network(sim, net::FaultModel{},
                          std::make_unique<net::ConstantLatency>(SimTime{10}),
                          Rng{7});
  net::Transport& transport = network;

  CountingEndpoint a;
  CountingEndpoint b;
  transport.attach(MemberId{0}, a);
  transport.attach(MemberId{1}, b);

  transport.send(net::Message{MemberId{0}, MemberId{1},
                              net::Frame{0x01, 0x02, 0x03}});
  sim.run();

  EXPECT_EQ(b.received_, 1u);
  EXPECT_EQ(b.last_.source, MemberId{0});
  EXPECT_EQ(b.last_.frame.size(), 3u);
  EXPECT_EQ(transport.stats().messages_delivered, 1u);

  // Detach through the interface: the next message is dead-destination.
  transport.detach(MemberId{1});
  transport.send(net::Message{MemberId{0}, MemberId{1}, net::Frame{}});
  sim.run();
  EXPECT_EQ(b.received_, 1u);
  EXPECT_EQ(transport.stats().messages_dead_dest, 1u);
}

TEST(Datagram, EncodeDecodeRoundTripsAllSizes) {
  std::uint8_t buffer[net::kMaxRecordBytes];
  for (std::size_t payload = 0; payload <= net::kMaxPayloadBytes;
       payload += 17) {
    std::vector<std::uint8_t> bytes(payload);
    for (std::size_t i = 0; i < payload; ++i) {
      bytes[i] = static_cast<std::uint8_t>(i * 31 + payload);
    }
    const net::Message in{MemberId{123456}, MemberId{654321},
                          net::Frame{bytes}};
    const std::size_t size = net::encode_datagram(in, buffer);
    ASSERT_EQ(size, net::kDatagramHeaderBytes + payload);

    net::Message out;
    ASSERT_EQ(net::decode_datagram(buffer, size, out), net::DecodeError::kOk);
    EXPECT_EQ(out.source, in.source);
    EXPECT_EQ(out.destination, in.destination);
    EXPECT_TRUE(out.frame == in.frame);
  }
}

TEST(Datagram, RejectsEveryTruncation) {
  std::uint8_t buffer[net::kMaxRecordBytes];
  const net::Message in{MemberId{1}, MemberId{2},
                        net::Frame{1, 2, 3, 4, 5, 6, 7, 8}};
  const std::size_t size = net::encode_datagram(in, buffer);

  net::Message out;
  for (std::size_t cut = 0; cut < size; ++cut) {
    EXPECT_NE(net::decode_datagram(buffer, cut, out), net::DecodeError::kOk)
        << "accepted a datagram truncated to " << cut << " bytes";
  }
}

TEST(Datagram, RejectsPaddingAfterThePayload) {
  std::uint8_t buffer[net::kMaxRecordBytes + 8] = {};
  const net::Message in{MemberId{1}, MemberId{2}, net::Frame{9, 9}};
  const std::size_t size = net::encode_datagram(in, buffer);

  net::Message out;
  EXPECT_EQ(net::decode_datagram(buffer, size + 1, out),
            net::DecodeError::kLengthMismatch);
  EXPECT_EQ(net::decode_datagram(buffer, size + 8, out),
            net::DecodeError::kLengthMismatch);
}

TEST(Datagram, RejectsHeaderFieldCorruption) {
  std::uint8_t buffer[net::kMaxRecordBytes];
  const net::Message in{MemberId{1}, MemberId{2}, net::Frame{42}};
  const std::size_t size = net::encode_datagram(in, buffer);
  net::Message out;

  auto corrupted = [&](std::size_t offset, std::uint8_t value) {
    std::uint8_t copy[net::kMaxRecordBytes];
    std::memcpy(copy, buffer, size);
    copy[offset] = value;
    return net::decode_datagram(copy, size, out);
  };

  EXPECT_EQ(corrupted(0, 0xFF), net::DecodeError::kBadMagic);
  EXPECT_EQ(corrupted(4, net::kDatagramVersion + 1),
            net::DecodeError::kBadVersion);
  EXPECT_EQ(corrupted(5, 1), net::DecodeError::kBadReserved);
  // Claimed length beyond the constant bound.
  EXPECT_EQ(corrupted(7, 0xFF), net::DecodeError::kOversizePayload);
  // Claimed length merely wrong for the actual size.
  EXPECT_EQ(corrupted(6, 7), net::DecodeError::kLengthMismatch);
}

TEST(Datagram, ErrorsLeaveTheOutputUntouched) {
  net::Message out{MemberId{77}, MemberId{88}, net::Frame{5}};
  const std::uint8_t junk[4] = {1, 2, 3, 4};
  ASSERT_NE(net::decode_datagram(junk, sizeof(junk), out),
            net::DecodeError::kOk);
  EXPECT_EQ(out.source, MemberId{77});
  EXPECT_EQ(out.destination, MemberId{88});
  EXPECT_EQ(out.frame.size(), 1u);
}

TEST(Datagram, ErrorNamesAreStable) {
  EXPECT_STREQ(net::to_string(net::DecodeError::kOk), "ok");
  EXPECT_STREQ(net::to_string(net::DecodeError::kTooShort), "too-short");
  EXPECT_STREQ(net::to_string(net::DecodeError::kLengthMismatch),
               "length-mismatch");
}

}  // namespace
}  // namespace gridbox

// UdpTransport + Reactor over real loopback sockets, plus mocked-syscall
// unit tests for the batched receive path's EINTR/EAGAIN/spurious-wakeup
// behavior and drain budget, and for the send path's per-socket packing;
// the reactor's wake path and its timer firing contract (scripted clock
// and wait), and the shard mesh's shared launch clock and exit wake.
//
// Port discipline: a transport binds the lowest free port at or above its
// port_base, so a taken port only moves it up; tests here start from 43xxx
// and aim raw datagrams at local_port(), never at a computed port.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/membership/group.h"
#include "src/net/chaos.h"
#include "src/net/datagram.h"
#include "src/net/fault_model.h"
#include "src/net/reactor.h"
#include "src/net/udp_transport.h"
#include "src/runner/config.h"
#include "src/runner/udp_mesh.h"

namespace gridbox {
namespace {

class CollectingEndpoint final : public net::Endpoint {
 public:
  void on_message(const net::Message& message) override {
    messages_.push_back(message);
  }
  std::vector<net::Message> messages_;
};

[[nodiscard]] net::Reactor::Options reactor_options() {
  return net::Reactor::Options{};
}

TEST(UdpTransport, DeliversFramesAcrossRealSockets) {
  net::Reactor reactor(reactor_options());
  net::UdpTransport::Options topt;
  topt.port_base = 43000;
  net::UdpTransport transport(reactor, topt);

  CollectingEndpoint a;
  CollectingEndpoint b;
  transport.attach(MemberId{0}, a);
  transport.attach(MemberId{1}, b);
  ASSERT_EQ(transport.attached_count(), 2u);

  const net::Frame frame{0xAA, 0xBB, 0xCC};
  transport.send(net::Message{MemberId{0}, MemberId{1}, frame});
  transport.send(net::Message{MemberId{1}, MemberId{0}, frame});
  transport.send(net::Message{MemberId{0}, MemberId{0}, frame});  // self

  const bool done = reactor.run_until(
      [&]() { return a.messages_.size() == 2 && b.messages_.size() == 1; },
      SimTime::seconds(5));
  ASSERT_TRUE(done) << "loopback delivery timed out";

  EXPECT_EQ(b.messages_[0].source, MemberId{0});
  EXPECT_TRUE(b.messages_[0].frame == frame);
  EXPECT_EQ(transport.stats().messages_sent, 3u);
  EXPECT_EQ(transport.stats().messages_delivered, 3u);
  EXPECT_EQ(transport.stats().messages_malformed, 0u);
}

TEST(UdpTransport, CountsRawGarbageAsMalformed) {
  net::Reactor reactor(reactor_options());
  net::UdpTransport::Options topt;
  topt.port_base = 43050;
  net::UdpTransport transport(reactor, topt);

  CollectingEndpoint a;
  transport.attach(MemberId{0}, a);

  // A plain socket lobs byte soup at the member's port: short junk, a
  // valid header with padding appended, and an empty datagram.
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  to.sin_port = htons(transport.local_port());
  const std::uint8_t junk[5] = {1, 2, 3, 4, 5};
  ASSERT_GT(::sendto(fd, junk, sizeof(junk), 0,
                     reinterpret_cast<sockaddr*>(&to), sizeof(to)), 0);
  std::uint8_t padded[net::kMaxRecordBytes + 4] = {};
  const std::size_t valid = net::encode_datagram(
      net::Message{MemberId{9}, MemberId{0}, net::Frame{7}}, padded);
  ASSERT_GT(::sendto(fd, padded, valid + 4, 0,
                     reinterpret_cast<sockaddr*>(&to), sizeof(to)), 0);
  ASSERT_EQ(::sendto(fd, junk, 0, 0, reinterpret_cast<sockaddr*>(&to),
                     sizeof(to)), 0);
  ::close(fd);

  const bool done = reactor.run_until(
      [&]() { return transport.stats().messages_malformed >= 3; },
      SimTime::seconds(5));
  ASSERT_TRUE(done) << "malformed datagrams were not counted";
  EXPECT_TRUE(a.messages_.empty());
  EXPECT_EQ(transport.stats().messages_delivered, 0u);
}

TEST(UdpTransport, ChaosShimDropsOnTheSendPath) {
  net::Reactor reactor(reactor_options());
  net::UdpTransport::Options topt;
  topt.port_base = 43100;
  net::UdpTransport transport(reactor, topt);

  CollectingEndpoint a;
  CollectingEndpoint b;
  transport.attach(MemberId{0}, a);
  transport.attach(MemberId{1}, b);

  auto schedule = std::make_unique<net::ChaosSchedule>(
      net::ChaosSpec::parse("loss 1.0"), net::FaultModel{}, 2,
      Rng{99});
  transport.install_chaos(std::move(schedule));

  for (int i = 0; i < 20; ++i) {
    transport.send(net::Message{MemberId{0}, MemberId{1}, net::Frame{1}});
  }
  EXPECT_EQ(transport.stats().messages_sent, 20u);
  EXPECT_EQ(transport.stats().messages_dropped, 20u);

  // Nothing in flight: the poll loop must come back empty-handed.
  (void)reactor.run_until([&]() { return !b.messages_.empty(); },
                          SimTime::millis(30));
  EXPECT_TRUE(b.messages_.empty());
}

TEST(UdpTransport, ChaosShimDuplicatesViaTheTimerWheel) {
  net::Reactor reactor(reactor_options());
  net::UdpTransport::Options topt;
  topt.port_base = 43150;
  net::UdpTransport transport(reactor, topt);

  CollectingEndpoint a;
  CollectingEndpoint b;
  transport.attach(MemberId{0}, a);
  transport.attach(MemberId{1}, b);

  auto schedule = std::make_unique<net::ChaosSchedule>(
      net::ChaosSpec::parse("dup p=1.0 extra=2 spread=2000us"),
      net::FaultModel{}, 2, Rng{5});
  transport.install_chaos(std::move(schedule));

  transport.send(net::Message{MemberId{0}, MemberId{1}, net::Frame{3}});
  const bool done = reactor.run_until(
      [&]() { return b.messages_.size() == 3; }, SimTime::seconds(5));
  ASSERT_TRUE(done) << "duplicates did not arrive";
  EXPECT_EQ(transport.stats().messages_duplicated, 2u);
  EXPECT_EQ(transport.stats().messages_delivered, 3u);
}

// === Mocked-syscall receive-path tests (satellite: EINTR/EAGAIN). ===

/// Scripted recvmmsg(2): each call hands out the queued datagram steps in
/// order, as many as fit the batch, stopping before the next error step;
/// an error step at the head fails the call with its errno. Once the
/// script is spent, every call fails with EAGAIN.
struct ScriptedRecv {
  struct Step {
    std::vector<std::uint8_t> bytes;
    int err = 0;  ///< nonzero: fail with this errno
  };
  std::vector<Step> steps;
  std::size_t next = 0;
  std::uint64_t calls = 0;

  int operator()(int, mmsghdr* msgs, unsigned count) {
    ++calls;
    if (next >= steps.size()) {
      errno = EAGAIN;
      return -1;
    }
    if (steps[next].err != 0) {
      errno = steps[next++].err;
      return -1;
    }
    unsigned n = 0;
    while (n < count && next < steps.size() && steps[next].err == 0) {
      fill(msgs[n++], steps[next++].bytes);
    }
    return static_cast<int>(n);
  }

  /// Copies `bytes` into one message slot, truncating to its buffer as a
  /// kernel receive would.
  static void fill(mmsghdr& msg, const std::vector<std::uint8_t>& bytes) {
    const iovec& iov = msg.msg_hdr.msg_iov[0];
    const std::size_t n = std::min(iov.iov_len, bytes.size());
    if (n > 0) std::memcpy(iov.iov_base, bytes.data(), n);
    msg.msg_len = static_cast<unsigned>(n);
  }
};

void script_receives(net::UdpTransport& transport,
                     std::shared_ptr<ScriptedRecv> script) {
  net::UdpTransport::Hooks hooks;
  hooks.recv_batch = [script](int fd, mmsghdr* msgs, unsigned count) {
    return (*script)(fd, msgs, count);
  };
  transport.set_hooks(std::move(hooks));
}

[[nodiscard]] std::vector<std::uint8_t> encoded(MemberId from, MemberId to,
                                                std::uint8_t payload) {
  std::uint8_t buffer[net::kMaxRecordBytes];
  const std::size_t size = net::encode_datagram(
      net::Message{from, to, net::Frame{payload}}, buffer);
  return std::vector<std::uint8_t>(buffer, buffer + size);
}

/// The records of one datagram, in order; fails the test unless the
/// datagram splits exactly into well-formed records.
[[nodiscard]] std::vector<net::Message> records_of(
    const std::vector<std::uint8_t>& bytes) {
  std::vector<net::Message> records;
  EXPECT_GT(net::count_records(bytes.data(), bytes.size()), 0u);
  for (std::size_t at = 0; at < bytes.size();) {
    const std::size_t record =
        net::record_size(bytes.data() + at, bytes.size() - at);
    if (record == 0) break;
    net::Message message;
    EXPECT_EQ(net::decode_datagram(bytes.data() + at, record, message),
              net::DecodeError::kOk);
    records.push_back(message);
    at += record;
  }
  return records;
}

TEST(UdpTransport, ReceivePathRetriesEintrWithoutSpinning) {
  net::Reactor reactor(reactor_options());
  net::UdpTransport::Options topt;
  topt.port_base = 43200;
  net::UdpTransport transport(reactor, topt);
  CollectingEndpoint a;
  transport.attach(MemberId{0}, a);

  auto script = std::make_shared<ScriptedRecv>();
  script->steps.push_back({{}, EINTR});
  script->steps.push_back({{}, EINTR});
  script->steps.push_back({encoded(MemberId{1}, MemberId{0}, 0x7E), 0});
  script_receives(transport, script);

  // Drive the handler directly — a mocked reactor turn with the fd the
  // real dispatch would pass.
  transport.on_readable(transport.fd());

  // Two EINTR retries, one batch holding the datagram, one EAGAIN that
  // ends the drain: four calls total — bounded, not a spin.
  EXPECT_EQ(script->calls, 4u);
  EXPECT_EQ(
      reactor.telemetry().eintr_retries.load(std::memory_order_relaxed), 2u);
  ASSERT_EQ(a.messages_.size(), 1u);
  EXPECT_EQ(a.messages_[0].frame[0], 0x7E);
}

TEST(UdpTransport, SpuriousWakeupReadsOnceAndReturns) {
  net::Reactor reactor(reactor_options());
  net::UdpTransport::Options topt;
  topt.port_base = 43250;
  net::UdpTransport transport(reactor, topt);
  CollectingEndpoint a;
  transport.attach(MemberId{0}, a);

  auto script = std::make_shared<ScriptedRecv>();  // EAGAIN immediately
  script_receives(transport, script);

  transport.on_readable(transport.fd());
  EXPECT_EQ(script->calls, 1u);
  EXPECT_TRUE(a.messages_.empty());
  EXPECT_EQ(transport.stats().messages_malformed, 0u);
}

TEST(UdpTransport, EndlessEintrIsBoundedByMaxDrain) {
  net::Reactor reactor(reactor_options());
  net::UdpTransport::Options topt;
  topt.port_base = 43300;
  topt.max_drain = 16;
  net::UdpTransport transport(reactor, topt);
  CollectingEndpoint a;
  transport.attach(MemberId{0}, a);

  auto script = std::make_shared<ScriptedRecv>();
  for (int i = 0; i < 1000; ++i) script->steps.push_back({{}, EINTR});
  script_receives(transport, script);

  // A pathological signal storm must yield back to the reactor after
  // max_drain iterations, not spin through the whole storm.
  transport.on_readable(transport.fd());
  EXPECT_EQ(script->calls, 16u);
}

TEST(UdpTransport, MockedDrainCountsMalformedAndDeliversValid) {
  net::Reactor reactor(reactor_options());
  net::UdpTransport::Options topt;
  topt.port_base = 43350;
  net::UdpTransport transport(reactor, topt);
  // Members 0..8 live on this socket; member 9 on another shard's.
  auto addresses = std::make_shared<net::AddressTable>(
      10, net::loopback_address(transport.local_port()));
  (*addresses)[9] = net::loopback_address(
      static_cast<std::uint16_t>(transport.local_port() + 1));
  transport.set_addresses(addresses);
  CollectingEndpoint a;
  transport.attach(MemberId{0}, a);

  auto script = std::make_shared<ScriptedRecv>();
  script->steps.push_back({{0xDE, 0xAD}, 0});                       // junk
  script->steps.push_back({encoded(MemberId{4}, MemberId{0}, 1), 0});
  script->steps.push_back({encoded(MemberId{4}, MemberId{9}, 2), 0});  // mis-addressed
  script->steps.push_back({{}, EINTR});
  script->steps.push_back({encoded(MemberId{5}, MemberId{0}, 3), 0});
  script_receives(transport, script);

  transport.on_readable(transport.fd());
  EXPECT_EQ(transport.stats().messages_malformed, 2u);
  EXPECT_EQ(transport.stats().messages_delivered, 2u);
  ASSERT_EQ(a.messages_.size(), 2u);
  EXPECT_EQ(a.messages_[0].frame[0], 1);
  EXPECT_EQ(a.messages_[1].frame[0], 3);
}

TEST(UdpTransport, DrainBudgetIsMaxDrainPerAttachedMember) {
  net::Reactor reactor(reactor_options());
  net::UdpTransport::Options topt;
  topt.port_base = 43400;
  topt.max_drain = 10;
  net::UdpTransport transport(reactor, topt);
  CollectingEndpoint members[3];
  for (std::uint32_t m = 0; m < 3; ++m) {
    transport.attach(MemberId{m}, members[m]);
  }

  // An endless queue: every call fills the whole batch, round-robin over
  // the three members.
  std::uint64_t handed = 0;
  std::uint64_t calls = 0;
  net::UdpTransport::Hooks hooks;
  hooks.recv_batch = [&](int, mmsghdr* msgs, unsigned count) {
    ++calls;
    for (unsigned i = 0; i < count; ++i) {
      const MemberId to{static_cast<std::uint32_t>(handed++ % 3)};
      ScriptedRecv::fill(msgs[i], encoded(MemberId{7}, to, 1));
    }
    return static_cast<int>(count);
  };
  transport.set_hooks(std::move(hooks));

  // One wake reads exactly max_drain x 3 datagrams and yields.
  transport.on_readable(transport.fd());
  EXPECT_EQ(handed, 30u);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(transport.stats().messages_delivered, 30u);
  for (const CollectingEndpoint& member : members) {
    EXPECT_EQ(member.messages_.size(), 10u);
  }
}

TEST(UdpTransport, DrainBudgetCountsFramesNotDatagrams) {
  net::Reactor reactor(reactor_options());
  net::UdpTransport::Options topt;
  topt.port_base = 43420;
  topt.max_drain = 100;
  net::UdpTransport transport(reactor, topt);
  CollectingEndpoint members[3];
  for (std::uint32_t m = 0; m < 3; ++m) {
    transport.attach(MemberId{m}, members[m]);
  }

  // An endless queue of packed datagrams, ten records each, round-robin
  // over the three members.
  constexpr std::size_t kRecords = 10;
  std::uint64_t handed = 0;
  net::UdpTransport::Hooks hooks;
  hooks.recv_batch = [&](int, mmsghdr* msgs, unsigned count) {
    for (unsigned i = 0; i < count; ++i) {
      std::vector<std::uint8_t> datagram;
      for (std::size_t r = 0; r < kRecords; ++r) {
        const MemberId to{static_cast<std::uint32_t>(handed++ % 3)};
        const auto record = encoded(MemberId{7}, to, 1);
        datagram.insert(datagram.end(), record.begin(), record.end());
      }
      ScriptedRecv::fill(msgs[i], datagram);
    }
    return static_cast<int>(count);
  };
  transport.set_hooks(std::move(hooks));

  // The budget is max_drain x 3 = 300 frames. A datagram is read whole, so
  // the wake may overshoot, but by less than one receive batch of frames —
  // not by a factor of the records a datagram carries.
  transport.on_readable(transport.fd());
  const std::uint64_t budget = 300;
  const std::uint64_t delivered = transport.stats().messages_delivered;
  EXPECT_EQ(delivered, handed);
  EXPECT_GE(delivered, budget);
  EXPECT_LT(delivered, budget + net::UdpTransport::kRecvBatch * kRecords);
}

TEST(UdpTransport, RoutesByAddressTableAndRejectsMisaddressedDatagrams) {
  net::Reactor reactor(reactor_options());
  net::UdpTransport::Options topt;
  topt.port_base = 43450;
  net::UdpTransport shard0(reactor, topt);
  net::UdpTransport shard1(reactor, topt);
  ASSERT_NE(shard0.local_port(), shard1.local_port());
  auto addresses = std::make_shared<net::AddressTable>(
      std::initializer_list<sockaddr_in>{
          net::loopback_address(shard0.local_port()),
          net::loopback_address(shard1.local_port())});
  shard0.set_addresses(addresses);
  shard1.set_addresses(addresses);
  CollectingEndpoint a;
  CollectingEndpoint b;
  shard0.attach(MemberId{0}, a);
  shard1.attach(MemberId{1}, b);

  // Through the table, member 0's send lands on shard 1's socket.
  shard0.send(net::Message{MemberId{0}, MemberId{1}, net::Frame{5}});
  // A raw datagram for member 1 aimed at shard 0's socket is mis-addressed.
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  const sockaddr_in to = net::loopback_address(shard0.local_port());
  const auto stray = encoded(MemberId{0}, MemberId{1}, 6);
  ASSERT_GT(::sendto(fd, stray.data(), stray.size(), 0,
                     reinterpret_cast<const sockaddr*>(&to), sizeof(to)), 0);
  ::close(fd);

  const bool done = reactor.run_until(
      [&]() {
        return b.messages_.size() == 1 &&
               shard0.stats().messages_malformed == 1;
      },
      SimTime::seconds(5));
  ASSERT_TRUE(done) << "routed or stray datagram was not accounted";
  EXPECT_EQ(b.messages_[0].frame[0], 5);
  EXPECT_TRUE(a.messages_.empty());
  EXPECT_EQ(shard0.stats().messages_delivered, 0u);
  EXPECT_EQ(shard1.stats().messages_malformed, 0u);
}

TEST(UdpTransport, KernelReceiveDropsCloseTheAccounting) {
  net::Reactor reactor(reactor_options());
  net::UdpTransport::Options topt;
  topt.port_base = 43500;
  topt.rcvbuf_bytes = 1;  // the kernel rounds up to its minimum buffer
  net::UdpTransport transport(reactor, topt);
  CollectingEndpoint a;
  CollectingEndpoint b;
  transport.attach(MemberId{0}, a);
  transport.attach(MemberId{1}, b);

  // Flood the socket before any drain: full-size frames pack into several
  // cap-size datagrams, and a minimum buffer keeps only the first.
  const net::Frame full(
      std::vector<std::uint8_t>(net::kMaxPayloadBytes, 9));
  for (int i = 0; i < 2000; ++i) {
    transport.send(net::Message{MemberId{0}, MemberId{1}, full});
  }
  transport.flush();

  // Drain what the kernel kept for 200 ms, then count the rest lost, as a
  // run does once its shards have stopped.
  reactor.bind_epoch(std::chrono::steady_clock::now());
  (void)reactor.run_until([]() { return false; }, SimTime::millis(200));
  const net::NetworkStats& stats = transport.final_stats();
  EXPECT_EQ(stats.messages_sent, 2000u);
  EXPECT_EQ(stats.messages_sent,
            stats.messages_delivered + stats.messages_dropped);
  EXPECT_GT(stats.messages_dropped, 0u)
      << "the flood should overflow a minimum-size receive buffer";
  EXPECT_GT(stats.messages_delivered, 0u);
  EXPECT_EQ(b.messages_.size(), stats.messages_delivered);
}

TEST(UdpTransport, OutboxFlushesBeforeRunUntilReturns) {
  net::Reactor reactor(reactor_options());
  net::UdpTransport::Options topt;
  topt.port_base = 43550;
  net::UdpTransport transport(reactor, topt);

  // A plain peer socket stands in for member 1's shard.
  const int peer = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  ASSERT_GE(peer, 0);
  sockaddr_in peer_addr = net::loopback_address(0);
  ASSERT_EQ(::bind(peer, reinterpret_cast<const sockaddr*>(&peer_addr),
                   sizeof(peer_addr)), 0);
  socklen_t len = sizeof(peer_addr);
  ASSERT_EQ(::getsockname(peer, reinterpret_cast<sockaddr*>(&peer_addr), &len),
            0);
  transport.set_addresses(std::make_shared<net::AddressTable>(
      std::initializer_list<sockaddr_in>{
          net::loopback_address(transport.local_port()), peer_addr}));
  CollectingEndpoint a;
  transport.attach(MemberId{0}, a);

  bool sent = false;
  reactor.schedule_after(SimTime::millis(1), [&]() {
    for (std::uint8_t i = 0; i < 3; ++i) {
      transport.send(net::Message{MemberId{0}, MemberId{1}, net::Frame{i}});
    }
    sent = true;
  });
  ASSERT_TRUE(reactor.run_until([&]() { return sent; }, SimTime::seconds(5)));

  // Fewer than a batch, yet all three left before run_until returned:
  // nothing flushes the outbox after it, so every frame that reaches the
  // peer (allowing for deferred loopback delivery) was on the wire. A
  // datagram packs one or more records; walk them in order.
  std::uint64_t on_wire = 0;
  std::uint8_t buffer[net::kMaxDatagramBytes];
  while (on_wire < 3) {
    pollfd ready{peer, POLLIN, 0};
    if (::poll(&ready, 1, 1000) <= 0) break;
    const ssize_t n = ::recv(peer, buffer, sizeof(buffer), 0);
    if (n < 0) break;
    const std::vector<std::uint8_t> datagram(buffer, buffer + n);
    for (const net::Message& message : records_of(datagram)) {
      EXPECT_EQ(message.destination, MemberId{1});
      EXPECT_EQ(message.frame[0], on_wire);
      ++on_wire;
    }
  }
  ::close(peer);
  EXPECT_EQ(on_wire, 3u);
  EXPECT_EQ(transport.stats().messages_sent, on_wire);
  EXPECT_EQ(transport.stats().messages_dropped, 0u);
}

// === Mocked-syscall send-path tests: packing frames per socket. ===

/// Scripted sendmmsg(2): fails with each queued errno in turn, then
/// accepts whole batches and keeps a copy of every datagram it accepts.
struct CapturingSend {
  struct Datagram {
    sockaddr_in to;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<int> errors;
  std::vector<Datagram> sent;

  int operator()(int, mmsghdr* msgs, unsigned count) {
    if (!errors.empty()) {
      errno = errors.front();
      errors.erase(errors.begin());
      return -1;
    }
    for (unsigned i = 0; i < count; ++i) {
      const msghdr& header = msgs[i].msg_hdr;
      const auto* base =
          static_cast<const std::uint8_t*>(header.msg_iov[0].iov_base);
      sent.push_back({*static_cast<const sockaddr_in*>(header.msg_name),
                      {base, base + header.msg_iov[0].iov_len}});
    }
    return static_cast<int>(count);
  }
};

void capture_sends(net::UdpTransport& transport,
                   std::shared_ptr<CapturingSend> capture) {
  net::UdpTransport::Hooks hooks;
  hooks.send_batch = [capture](int fd, mmsghdr* msgs, unsigned count) {
    return (*capture)(fd, msgs, count);
  };
  transport.set_hooks(std::move(hooks));
}

/// A frame of 1..200 bytes that names its send index in its first two.
[[nodiscard]] net::Frame numbered_frame(std::uint32_t i) {
  std::vector<std::uint8_t> bytes(2 + (i * 37) % 199, 0x5A);
  bytes[0] = static_cast<std::uint8_t>(i & 0xff);
  bytes[1] = static_cast<std::uint8_t>(i >> 8);
  return net::Frame(bytes.data(), bytes.size());
}

/// A table placing member m at `base + m % sockets`: foreign ports the
/// mocked send never reaches, so no frame is credited to any socket.
[[nodiscard]] std::shared_ptr<net::AddressTable> foreign_addresses(
    std::uint16_t base, std::uint32_t members, std::uint32_t sockets) {
  auto table = std::make_shared<net::AddressTable>(members);
  for (std::uint32_t m = 0; m < members; ++m) {
    (*table)[m] = net::loopback_address(
        static_cast<std::uint16_t>(base + m % sockets));
  }
  return table;
}

TEST(UdpTransport, PacksFramesForOneSocketInSendOrderUpToTheCap) {
  net::Reactor reactor(reactor_options());
  net::UdpTransport::Options topt;
  topt.port_base = 43600;
  net::UdpTransport transport(reactor, topt);
  transport.set_addresses(foreign_addresses(9000, 2, 1));
  auto capture = std::make_shared<CapturingSend>();
  capture_sends(transport, capture);

  // Enough bytes for more than one outbox (kBatch cap-size datagrams), so
  // packing also spans the mid-fill flush.
  constexpr std::uint32_t kFrames = 40000;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    transport.send(net::Message{MemberId{0}, MemberId{1}, numbered_frame(i)});
  }
  transport.flush();

  ASSERT_GT(capture->sent.size(), net::UdpTransport::kBatch);
  ASSERT_LT(capture->sent.size(), kFrames / 4);
  std::uint32_t next = 0;
  for (std::size_t d = 0; d < capture->sent.size(); ++d) {
    const auto& datagram = capture->sent[d];
    EXPECT_LE(datagram.bytes.size(), net::kMaxDatagramBytes);
    for (const net::Message& message : records_of(datagram.bytes)) {
      ASSERT_TRUE(message.frame == numbered_frame(next))
          << "frame " << next << " out of order or altered";
      EXPECT_EQ(message.destination, MemberId{1});
      ++next;
    }
    // Greedy: a datagram closes only when the next frame would not fit.
    if (d + 1 < capture->sent.size()) {
      EXPECT_GT(datagram.bytes.size() + net::kDatagramHeaderBytes +
                    numbered_frame(next).size(),
                net::kMaxDatagramBytes);
    }
  }
  EXPECT_EQ(next, kFrames);
  EXPECT_EQ(transport.stats().messages_sent, kFrames);
  EXPECT_EQ(transport.stats().messages_dropped, 0u);
}

TEST(UdpTransport, OneFlushSendsOneDatagramPerPeerSocket) {
  net::Reactor reactor(reactor_options());
  net::UdpTransport::Options topt;
  topt.port_base = 43630;
  net::UdpTransport transport(reactor, topt);
  transport.set_addresses(foreign_addresses(9050, 8, 4));
  auto capture = std::make_shared<CapturingSend>();
  capture_sends(transport, capture);

  // A round's worth of traffic: 300 frames of 140 bytes for each of four
  // peer sockets, interleaved, in one flush.
  const net::Frame frame(std::vector<std::uint8_t>(140, 0x33));
  for (std::uint32_t i = 0; i < 4 * 300; ++i) {
    transport.send(net::Message{MemberId{0}, MemberId{i % 8}, frame});
  }
  transport.flush();

  ASSERT_EQ(capture->sent.size(), 4u);
  for (const auto& datagram : capture->sent) {
    EXPECT_EQ(records_of(datagram.bytes).size(), 300u);
  }
  EXPECT_EQ(transport.stats().messages_dropped, 0u);
}

TEST(UdpTransport, FramesForTwoSocketsNeverShareADatagram) {
  net::Reactor reactor(reactor_options());
  net::UdpTransport::Options topt;
  topt.port_base = 43650;
  net::UdpTransport transport(reactor, topt);
  const auto table = foreign_addresses(9100, 8, 2);
  transport.set_addresses(table);
  auto capture = std::make_shared<CapturingSend>();
  capture_sends(transport, capture);

  // Interleave destinations on both sockets within one flush; 20 one-byte
  // frames per socket fit one datagram each.
  for (std::uint32_t i = 0; i < 40; ++i) {
    transport.send(net::Message{MemberId{0}, MemberId{i % 8},
                                net::Frame{static_cast<std::uint8_t>(i)}});
  }
  transport.flush();

  ASSERT_EQ(capture->sent.size(), 2u);
  std::uint32_t frames = 0;
  for (const auto& datagram : capture->sent) {
    std::uint32_t last = 0;
    bool first = true;
    for (const net::Message& message : records_of(datagram.bytes)) {
      const sockaddr_in& home = (*table)[message.destination.value()];
      EXPECT_EQ(home.sin_port, datagram.to.sin_port)
          << "member " << message.destination.value()
          << " rode in another socket's datagram";
      const std::uint32_t index = message.frame[0];
      EXPECT_TRUE(first || index > last) << "send order lost";
      first = false;
      last = index;
      ++frames;
    }
  }
  EXPECT_EQ(frames, 40u);
}

TEST(UdpTransport, EagainOnAPackedDatagramDropsAllOfItsFrames) {
  net::Reactor reactor(reactor_options());
  net::UdpTransport::Options topt;
  topt.port_base = 43700;
  net::UdpTransport transport(reactor, topt);
  transport.set_addresses(foreign_addresses(9200, 2, 2));
  auto capture = std::make_shared<CapturingSend>();
  capture->errors = {EAGAIN};
  capture_sends(transport, capture);

  // 40 small frames pack into one datagram for member 0's socket, then 5
  // into one for member 1's; the kernel refuses the first.
  for (std::uint32_t i = 0; i < 40; ++i) {
    transport.send(net::Message{MemberId{1}, MemberId{0}, net::Frame{1, 2}});
  }
  for (std::uint32_t i = 0; i < 5; ++i) {
    transport.send(net::Message{MemberId{0}, MemberId{1}, net::Frame{3}});
  }
  transport.flush();

  EXPECT_EQ(transport.stats().messages_sent, 45u);
  EXPECT_EQ(transport.stats().messages_dropped, 40u);
  ASSERT_EQ(capture->sent.size(), 1u);
  EXPECT_EQ(records_of(capture->sent[0].bytes).size(), 5u);
}

TEST(Reactor, PollEintrIsRetriedNotFatal) {
  net::Reactor reactor(reactor_options());
  int eintr_left = 3;
  reactor.set_wait_fn([&](pollfd* fds, nfds_t nfds, SimTime timeout) -> int {
    if (eintr_left > 0) {
      --eintr_left;
      errno = EINTR;
      return -1;
    }
    const timespec ts{static_cast<time_t>(timeout.ticks() / 1'000'000),
                      static_cast<long>(timeout.ticks() % 1'000'000 * 1000)};
    return ::ppoll(fds, nfds, &ts, nullptr);
  });

  bool fired = false;
  reactor.schedule_after(SimTime::millis(5), [&]() { fired = true; });
  const bool done =
      reactor.run_until([&]() { return fired; }, SimTime::seconds(5));
  EXPECT_TRUE(done);
  EXPECT_EQ(
      reactor.telemetry().eintr_retries.load(std::memory_order_relaxed), 3u);
}

/// Typed periodic timer driven by the reactor: counts fires, stops at limit.
class CountingTimer final : public sim::TimerTarget {
 public:
  explicit CountingTimer(std::uint64_t limit) : limit_(limit) {}
  bool on_timer(std::uint32_t) override { return ++fires_ < limit_; }
  std::uint64_t fires_ = 0;

 private:
  std::uint64_t limit_;
};

TEST(Reactor, TimerWheelDrivesTypedPeriodicTimers) {
  net::Reactor reactor(reactor_options());
  CountingTimer timer(5);
  reactor.schedule_periodic(SimTime::zero(), SimTime::millis(2), timer);
  const bool done = reactor.run_until([&]() { return timer.fires_ == 5; },
                                      SimTime::seconds(5));
  EXPECT_TRUE(done);
  // The chain self-cancelled at 5: run the loop a while longer and assert
  // no sixth fire.
  (void)reactor.run_until([]() { return false; }, SimTime::millis(20));
  EXPECT_EQ(timer.fires_, 5u);
  EXPECT_GE(
      reactor.telemetry().timers_fired.load(std::memory_order_relaxed), 5u);
}

TEST(Reactor, FarFutureTimersParkBeyondTheWheelHorizon) {
  // A far timer waits behind a near one: the near one fires first, and the
  // far one neither fires early nor is lost.
  net::Reactor reactor(reactor_options());
  bool near = false;
  bool far = false;
  reactor.schedule_after(SimTime::millis(8), [&]() { near = true; });
  reactor.schedule_after(SimTime::millis(40), [&]() { far = true; });

  ASSERT_TRUE(reactor.run_until([&]() { return near; }, SimTime::seconds(5)));
  EXPECT_FALSE(far) << "far timer fired a lap early";
  ASSERT_TRUE(reactor.run_until([&]() { return far; }, SimTime::seconds(5)));
  EXPECT_GE(reactor.now(), SimTime::millis(40));
}

// === Wake path: the loop sleeps until it has work (scripted clock + wait). ===

/// Scripted wait: every wait advances the scripted clock by the timeout it
/// was given (the sleep ran out), except that `early`, if set, ends the
/// first wait at that instant instead (a datagram arrived: every watched
/// socket past the wake eventfd at index 0 polls readable). A loop that
/// spins is cut off past every test deadline after 100 waits.
struct ScriptedWait {
  SimTime clock = SimTime::zero();
  std::vector<SimTime> timeouts;
  std::optional<SimTime> early;

  void install(net::Reactor& reactor) {
    reactor.set_clock_fn([this]() { return clock; });
    reactor.set_wait_fn([this](pollfd* fds, nfds_t nfds, SimTime timeout) {
      timeouts.push_back(timeout);
      if (timeouts.size() >= 100) {
        clock = SimTime::seconds(60);
      } else if (early.has_value()) {
        clock = *early;
        early.reset();
        for (nfds_t i = 1; i < nfds; ++i) fds[i].revents = POLLIN;
        return static_cast<int>(nfds) - 1;
      } else {
        clock += timeout;
      }
      return 0;
    });
  }
};

TEST(Reactor, IdleLoopSleepsStraightToItsOnlyTimer) {
  net::Reactor reactor(reactor_options());
  ScriptedWait wait;
  wait.install(reactor);
  bool fired = false;
  reactor.schedule_after(SimTime::millis(50), [&]() { fired = true; });

  ASSERT_TRUE(reactor.run_until([&]() { return fired; }, SimTime::seconds(5)));
  EXPECT_LE(wait.timeouts.size(), 3u);
  EXPECT_EQ(wait.clock, SimTime::millis(50)) << "fired off its deadline";
  EXPECT_EQ(reactor.telemetry().polls.load(std::memory_order_relaxed),
            wait.timeouts.size());
}

TEST(Reactor, EntryDueAfterAWakeFiresAtItsDeadline) {
  // A wake at 50.2 ms finds the 50.5 ms entry not yet due. The loop must
  // sleep the remaining 0.3 ms and fire it at its deadline: neither later
  // nor by spinning on zero timeouts.
  net::Reactor reactor(reactor_options());
  ScriptedWait wait;
  wait.install(reactor);
  wait.early = SimTime::micros(50'200);
  bool fired = false;
  reactor.schedule_at(SimTime::micros(50'500), [&]() { fired = true; });

  ASSERT_TRUE(reactor.run_until([&]() { return fired; }, SimTime::seconds(5)));
  EXPECT_LE(wait.timeouts.size(), 3u);
  for (const SimTime timeout : wait.timeouts) {
    EXPECT_GT(timeout, SimTime::zero()) << "spun on a zero timeout";
  }
  EXPECT_EQ(wait.clock, SimTime::micros(50'500)) << "fired off its deadline";
}

TEST(Reactor, SameDeadlineEntriesFireInArmOrder) {
  // Entries armed for one deadline fire in the order they were armed, as
  // the simulator fires them.
  net::Reactor reactor(reactor_options());
  SimTime clock = SimTime::zero();
  reactor.set_clock_fn([&clock]() { return clock; });
  std::string order;
  for (const char name : {'a', 'b', 'c'}) {
    reactor.schedule_at(SimTime::millis(10), [&order, name]() {
      order.push_back(name);
    });
  }
  clock = SimTime::millis(10);
  reactor.fire_due_timers();
  EXPECT_EQ(order, "abc");
}

TEST(Reactor, LatePeriodicTimerFiresOncePerPass) {
  // The loop stalls until ten intervals past the first deadline. Each pass
  // fires the timer once and re-arms it one interval after its scheduled
  // deadline, so the missed rounds are caught up one per pass, never
  // several in one pass, and the chain keeps its cadence.
  net::Reactor reactor(reactor_options());
  SimTime clock = SimTime::zero();
  reactor.set_clock_fn([&clock]() { return clock; });
  CountingTimer timer(1'000);
  reactor.schedule_periodic(SimTime::millis(10), SimTime::millis(10), timer);
  const auto is_timer = [&timer](const sim::TimerTarget* target) {
    return target == &timer;
  };

  clock = SimTime::millis(110);
  for (std::uint64_t pass = 1; pass <= 11; ++pass) {
    reactor.fire_due_timers();
    EXPECT_EQ(timer.fires_, pass) << "pass " << pass;
    EXPECT_EQ(reactor.count_timers_where(is_timer), 1u);
  }
  // Deadlines 10, 20, ..., 110 ms have fired; the next is 120 ms.
  reactor.fire_due_timers();
  EXPECT_EQ(timer.fires_, 11u);
  clock = SimTime::millis(120);
  reactor.fire_due_timers();
  EXPECT_EQ(timer.fires_, 12u);
}

/// Records the loop time each readable callback sees; each delivery then
/// advances the scripted clock by `cost` (the time it took).
class ClockRecorder final : public net::IoHandler {
 public:
  ClockRecorder(const net::Reactor& reactor, ScriptedWait& wait)
      : reactor_(&reactor), wait_(&wait) {}
  void on_readable(int) override {
    seen.push_back(reactor_->now());
    wait_->clock += cost;
  }
  std::vector<SimTime> seen;
  SimTime cost = SimTime::zero();

 private:
  const net::Reactor* reactor_;
  ScriptedWait* wait_;
};

TEST(Reactor, DeliveriesSeeTheClockOfTheWakeNotOfTheSleep) {
  // The loop sleeps from t=0 toward a 100 ms timer; a datagram wakes it at
  // 30 ms. The delivery must read the wake instant, as libuv refreshes its
  // loop time as soon as epoll returns: a stale clock would stamp finishes
  // and chaos delays up to a whole sleep early.
  net::Reactor reactor(reactor_options());
  ScriptedWait wait;
  wait.install(reactor);
  wait.early = SimTime::millis(30);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ClockRecorder recorder(reactor, wait);
  reactor.add_fd(fds[0], recorder);
  reactor.schedule_after(SimTime::millis(100), []() {});

  ASSERT_TRUE(reactor.run_until([&]() { return !recorder.seen.empty(); },
                                SimTime::seconds(5)));
  reactor.remove_fd(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
  EXPECT_EQ(recorder.seen, std::vector<SimTime>{SimTime::millis(30)});
  EXPECT_EQ(reactor.now(), SimTime::millis(30));
}

TEST(Reactor, TimersThatComeDueDuringDeliveriesFireWithoutAnotherWait) {
  // A datagram wakes the loop at 30 ms and its delivery takes 2 ms, past
  // a timer due at 31 ms. The next pass must see the clock after the
  // delivery and fire the timer, not wait a zero timeout to notice it.
  net::Reactor reactor(reactor_options());
  ScriptedWait wait;
  wait.install(reactor);
  wait.early = SimTime::millis(30);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ClockRecorder recorder(reactor, wait);
  recorder.cost = SimTime::millis(2);
  reactor.add_fd(fds[0], recorder);
  bool fired = false;
  reactor.schedule_at(SimTime::millis(31), [&]() { fired = true; });

  ASSERT_TRUE(reactor.run_until([&]() { return fired; }, SimTime::seconds(5)));
  reactor.remove_fd(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
  EXPECT_EQ(wait.timeouts.size(), 1u) << "waited again for a due timer";
  EXPECT_EQ(reactor.now(), SimTime::millis(32));
}

TEST(Reactor, PostFromAnotherThreadWakesALongSleep) {
  net::Reactor reactor(reactor_options());
  reactor.schedule_after(SimTime::seconds(5), []() {});
  using Clock = std::chrono::steady_clock;
  std::atomic<bool> ran{false};
  Clock::time_point posted_at;
  Clock::time_point ran_at;

  std::thread poster([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    posted_at = Clock::now();
    reactor.post([&]() {
      ran_at = Clock::now();
      ran.store(true, std::memory_order_release);
    });
  });
  const bool done = reactor.run_until(
      [&]() { return ran.load(std::memory_order_acquire); },
      SimTime::seconds(10));
  poster.join();

  ASSERT_TRUE(done);
  EXPECT_LT(ran_at - posted_at, std::chrono::milliseconds(50));
}

[[nodiscard]] runner::ExperimentConfig mesh_config(std::uint32_t members) {
  runner::ExperimentConfig config;
  config.group_size = members;
  config.ucast_loss = 0.0;
  config.crash_probability = 0.0;
  return config;
}

TEST(UdpShards, RunReturnsPromptlyWhileAShardHasNoTimer) {
  // Shard 1 has no timer and no traffic: it sleeps until woken. When shard
  // 0's action makes done() true, shard 0 leaves its loop and must wake
  // shard 1 to see it, rather than leave it asleep until the deadline.
  const runner::ExperimentConfig config = mesh_config(4);
  membership::Group group(config.group_size);
  runner::UdpMesh mesh(config, 43750, 2, group);
  using Clock = std::chrono::steady_clock;
  std::atomic<bool> finished{false};
  Clock::time_point finished_at;
  mesh.control().schedule_at(SimTime::millis(20), [&]() {
    finished_at = Clock::now();
    finished.store(true, std::memory_order_release);
  });

  const bool done = mesh.run(
      [&]() { return finished.load(std::memory_order_acquire); },
      SimTime::seconds(10));
  const Clock::duration lag = Clock::now() - finished_at;
  EXPECT_TRUE(done);
  EXPECT_LT(lag, std::chrono::milliseconds(50));
}

/// One-shot round timer that counts its fire across shard threads.
class FirstRound final : public sim::TimerTarget {
 public:
  explicit FirstRound(std::atomic<int>& fired) : fired_(&fired) {}
  bool on_timer(std::uint32_t) override {
    fired_->fetch_add(1, std::memory_order_acq_rel);
    return false;
  }

 private:
  std::atomic<int>* fired_;
};

TEST(UdpShards, RoundsArmedDuringSetupFireInOneWheelPassPerShard) {
  // Members start during setup, as the runners start nodes before the
  // launch. The shard clocks read zero until then, so every first round
  // shares the t=0 deadline even though setup takes milliseconds; each
  // shard fires its whole cohort in one pass.
  constexpr std::uint32_t kMembers = 64;
  const runner::ExperimentConfig config = mesh_config(kMembers);
  membership::Group group(config.group_size);
  runner::UdpMesh mesh(config, 43800, 4, group);
  std::atomic<int> fired{0};
  std::vector<std::unique_ptr<FirstRound>> rounds;
  for (std::uint32_t m = 0; m < kMembers; ++m) {
    rounds.push_back(std::make_unique<FirstRound>(fired));
    mesh.reactor_of(MemberId{m})
        .schedule_periodic(SimTime::zero(), SimTime::millis(10), *rounds[m]);
    if (m % 8 == 7) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  ASSERT_TRUE(mesh.run(
      [&]() { return fired.load(std::memory_order_acquire) == kMembers; },
      SimTime::seconds(10)));
  for (std::uint32_t s = 0; s < mesh.shard_count(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const obs::TelemetryLane& lane = mesh.reactor_of(MemberId{s}).telemetry();
    EXPECT_EQ(lane.timers_fired.load(std::memory_order_relaxed),
              kMembers / mesh.shard_count());
    EXPECT_EQ(lane.dispatch_per_tick.total(), 1u)
        << "the cohort's first round took several passes";
  }
}

// post() is the one cross-thread entry into a shard (DESIGN.md §14): each
// posting thread's actions must run on the reactor's own thread, in the
// order that thread posted them — even while the loop is firing timers
// between drains. Two posters model two peer shards handing work over.
TEST(Reactor, CrossThreadPostsExecuteInPostOrderUnderTimerLoad) {
  net::Reactor reactor(reactor_options());
  CountingTimer load(1'000'000);  // fires every 1 ms, never stops
  reactor.schedule_periodic(SimTime::zero(), SimTime::millis(1), load);

  constexpr int kPosters = 2;
  constexpr int kEach = 400;
  // Written only inside posted actions — i.e. only on the reactor thread.
  std::vector<std::vector<int>> got(kPosters);
  std::atomic<int> landed{0};
  std::atomic<bool> wrong_thread{false};

  std::thread::id reactor_thread;
  std::thread runner([&]() {
    reactor_thread = std::this_thread::get_id();
    (void)reactor.run_until(
        [&]() { return landed.load(std::memory_order_acquire) ==
                       kPosters * kEach; },
        SimTime::seconds(30));
  });

  std::vector<std::thread> posters;
  posters.reserve(kPosters);
  for (int p = 0; p < kPosters; ++p) {
    posters.emplace_back([&, p]() {
      for (int i = 0; i < kEach; ++i) {
        reactor.post([&, p, i]() {
          if (std::this_thread::get_id() != reactor_thread) {
            wrong_thread.store(true);
          }
          got[p].push_back(i);
          landed.fetch_add(1, std::memory_order_release);
        });
        if (i % 32 == 0) std::this_thread::yield();  // interleave the posters
      }
    });
  }
  for (std::thread& t : posters) t.join();
  runner.join();

  EXPECT_FALSE(wrong_thread.load()) << "a posted action ran off-shard";
  EXPECT_GT(reactor.telemetry().timers_fired.load(std::memory_order_relaxed),
            0u)
      << "the timer load never ran";
  for (int p = 0; p < kPosters; ++p) {
    ASSERT_EQ(got[p].size(), static_cast<std::size_t>(kEach))
        << "poster " << p << " lost posts (deadline hit?)";
    for (int i = 0; i < kEach; ++i) {
      ASSERT_EQ(got[p][i], i) << "poster " << p << " reordered at " << i;
    }
  }
}

}  // namespace
}  // namespace gridbox

// net::Transport over one real nonblocking UDP socket on loopback.
//
// One UdpTransport serves one shard of a run's members on one Reactor
// (thread), through ONE socket bound at construction to the lowest free
// loopback port >= Options::port_base. Members are not kernel objects:
// attach/detach only write the member -> endpoint table. Each record's
// 16-byte header (datagram.h) names the destination member, so a
// receiving shard demultiplexes by header, not by port; a receiver either
// delivers every frame of a datagram unchanged or counts the datagram
// malformed.
//
// Addressing is a member -> sockaddr table shared by every shard of a run
// (runner::UdpMesh fills it from each shard's bound address). A transport
// with no table sends every datagram to its own socket. Any member can
// unicast to any other, which is exactly the routing substrate the paper
// assumes.
//
// Batching: sends encode into a 64-datagram outbox flushed by sendmmsg(2)
// when full, and by the reactor at the end of every loop iteration
// (IoHandler::flush). While the outbox fills, each destination socket has
// one open datagram, and a frame bound there is appended to it as one more
// record; only a record that would take it past kMaxDatagramBytes (65507,
// the largest loopback datagram) opens a new one, so a flush sends one
// datagram per peer socket. A flush never holds a frame back, so packing
// adds no latency, and the kernel pays per datagram, not per frame.
// Receives drain with recvmmsg(2), up to max_drain frames per attached
// member per wake; a datagram is delivered only if all of it splits into
// well-formed records, each read once, in place, into one reused Message.
// The batch buffers are allocated on the first send or receive, and hold
// only as many bytes as the datagrams they have carried. NetworkStats
// count frames: a datagram the kernel refuses at send drops all of its
// frames, and kernel receive loss is the frames handed to this socket
// minus the frames read from it, folded into messages_dropped once the run
// is over (see final_stats()).
//
// Chaos shim: the same ChaosSchedule grammar the simulator uses is applied
// in userspace on the send path — a send may be dropped, delayed (the
// datagram is re-scheduled on the reactor's timer queue), or duplicated
// before it ever reaches the outbox. Loss/burst/jitter/dup specs therefore
// mean the same thing over real sockets as in simulation, on top of
// whatever the kernel itself drops (full socket buffers under load are
// counted as drops too — the protocols are built for exactly that).
//
// Threading: one UdpTransport is owned by one reactor shard, and every
// call on it (send from a protocol callback, on_readable/flush from the
// reactor, attach/detach during setup and teardown) happens on that
// shard's thread — the shard-ownership model of DESIGN.md §14. The
// transport itself takes no locks. Its message totals live in
// NetworkStats; its live counts (deliveries, receive EINTR retries,
// datagrams per wake) go to its reactor's telemetry lane. Cross-shard
// traffic goes through the kernel (a send lands in the *destination*
// shard's socket, drained by that shard). Stats reads at measurement time
// happen after the reactor threads have joined.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/net/chaos.h"
#include "src/net/datagram.h"
#include "src/net/reactor.h"
#include "src/net/stats.h"
#include "src/net/transport.h"

namespace gridbox::net {

/// 127.0.0.1:port.
[[nodiscard]] sockaddr_in loopback_address(std::uint16_t port);

/// Where each member's shard socket listens, indexed by member id.
using AddressTable = std::vector<sockaddr_in>;

class UdpTransport final : public Transport, public IoHandler {
 public:
  /// Datagrams per sendmmsg call; also the outbox capacity.
  static constexpr std::size_t kBatch = 64;
  /// Datagrams per recvmmsg call.
  static constexpr std::size_t kRecvBatch = 32;

  struct Options {
    /// The socket binds the lowest free loopback port >= port_base
    /// (0 = any port the kernel picks).
    std::uint16_t port_base = 0;
    /// Receive buffer request (the kernel clamps to rmem_max); large
    /// because every peer of the shard's members bursts at this socket.
    int rcvbuf_bytes = 4 << 20;
    /// Frames drained per attached member per on_readable call before
    /// yielding back to the reactor, so a flood cannot starve timers. A
    /// datagram is read whole, so a wake overshoots by at most the frames
    /// of one receive batch.
    std::size_t max_drain = 256;
  };

  /// Injectable batch syscalls, shaped like recvmmsg(2)/sendmmsg(2), for
  /// unit tests that script EINTR/EAGAIN and short reads without a kernel
  /// in the loop. Each returns the number of messages moved, or -1 with
  /// errno set.
  struct Hooks {
    std::function<int(int fd, mmsghdr* msgs, unsigned count)> recv_batch;
    std::function<int(int fd, mmsghdr* msgs, unsigned count)> send_batch;
  };

  /// Binds the socket and registers it with the reactor, which must
  /// outlive the transport. Throws PreconditionError if no port
  /// >= port_base can be bound.
  UdpTransport(Reactor& reactor, Options options);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// Routes datagrams for `id` to `endpoint`. No syscalls.
  void attach(MemberId id, Endpoint& endpoint) override;

  /// Stops routing to `id`; its later datagrams count dead-destination.
  void detach(MemberId id) override;

  void send(Message message) override;

  /// The tallies so far, without kernel receive loss: a frame handed to
  /// this socket and not yet read may still be in flight.
  [[nodiscard]] const NetworkStats& stats() const override;

  /// The tallies once every sender has stopped (after the shard threads
  /// join): frames handed to this socket and never read, queued or not,
  /// are folded in as lost, since nothing will read them. The only place
  /// kernel receive loss is counted.
  [[nodiscard]] const NetworkStats& final_stats() const;

  /// Credits `peer`'s socket with the frames this transport's flushes hand
  /// it, so `peer` can tell kernel loss from frames still queued. For the
  /// shards of one run; a transport always credits its own socket. `peer`
  /// must outlive this transport's flushes.
  void add_peer(UdpTransport& peer);

  /// Installs the member -> address table (shared by every shard of a
  /// run). Install before any send. A record arriving here for a member
  /// the table places on another socket counts malformed (mis-addressed).
  void set_addresses(std::shared_ptr<const AddressTable> addresses);

  /// Liveness oracle consulted at delivery, mirroring SimNetwork: a
  /// datagram for a dead member counts dead-destination, not delivered.
  void set_liveness(std::function<bool(MemberId)> is_alive);

  /// Installs the userspace chaos shim (see file comment). The schedule is
  /// bound to the reactor clock. Install before any send.
  void install_chaos(std::unique_ptr<ChaosSchedule> chaos);
  [[nodiscard]] const ChaosSchedule* chaos() const { return chaos_.get(); }

  void set_hooks(Hooks hooks);

  /// IoHandler: drains the readable socket in recvmmsg batches; tolerates
  /// EINTR (retries) and EAGAIN/spurious wakeups (returns) without
  /// spinning.
  void on_readable(int fd) override;

  /// IoHandler: sendmmsg()s the outbox.
  void flush() override;

  /// Number of attached members.
  [[nodiscard]] std::size_t attached_count() const { return attached_; }

  /// The shard socket; lets mocked-reactor tests drive on_readable with
  /// the fd the real dispatch would pass.
  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] std::uint16_t local_port() const;

 private:
  /// Appends one already-chaos-approved message to its destination's open
  /// datagram in the outbox.
  void transmit(const Message& message);
  /// The outbox slot of the datagram open for `to` if it has room for
  /// `record` more bytes, else of a new one (flushing a full outbox first).
  [[nodiscard]] std::size_t open_datagram(const sockaddr_in& to,
                                          std::size_t record);
  /// Splits one received datagram and delivers its records, or counts it
  /// malformed whole. Returns the number of records it held (0 malformed).
  std::size_t consume(const std::uint8_t* bytes, std::size_t size);
  /// Classifies and delivers one decoded record.
  void deliver(const Message& message);
  [[nodiscard]] const sockaddr_in& address_of(MemberId id) const;
  [[nodiscard]] Endpoint* endpoint_of(MemberId id) const;

  Reactor& reactor_;
  Options options_;
  Hooks hooks_;
  int fd_ = -1;
  sockaddr_in self_{};
  std::shared_ptr<const AddressTable> addresses_;
  std::vector<Endpoint*> endpoints_;  ///< dense by member id value
  std::size_t attached_ = 0;
  std::function<bool(MemberId)> is_alive_;
  std::unique_ptr<ChaosSchedule> chaos_;
  mutable NetworkStats stats_;
  std::vector<UdpTransport*> peers_;  ///< sockets flushes credit, this first
  std::uint64_t frames_read_ = 0;     ///< records of well-formed datagrams
  mutable std::uint64_t kernel_loss_ = 0;  ///< frames folded as lost
  /// Frames peers' flushes handed this socket (written on their threads).
  alignas(64) std::atomic<std::uint64_t> frames_handed_{0};

  /// The outbox: per datagram its packed records, address and frame
  /// count, plus the sendmmsg headers pointing at them. A datagram's bytes
  /// keep their capacity across flushes, so they grow to the largest
  /// datagram their slot has carried and a warmed-up outbox never
  /// allocates.
  std::array<std::vector<std::uint8_t>, kBatch> tx_bytes_;
  std::array<sockaddr_in, kBatch> tx_to_{};
  std::array<std::uint32_t, kBatch> tx_frames_{};  ///< records per datagram
  std::array<iovec, kBatch> tx_iov_{};
  std::array<mmsghdr, kBatch> tx_msgs_{};
  std::size_t tx_count_ = 0;  ///< datagrams waiting in the outbox

  /// The receive batch: kRecvBatch buffers of kMaxDatagramBytes + 1 bytes,
  /// one more than the largest legal datagram, so an oversize datagram is
  /// seen (and rejected), not silently truncated into a plausible prefix.
  /// Allocated on the first receive and left uninitialised: only bytes a
  /// receive filled are read, and a buffer's pages are touched only as far
  /// as the datagrams it has held.
  std::unique_ptr<std::uint8_t[]> rx_bytes_;
  std::array<iovec, kRecvBatch> rx_iov_{};
  std::array<mmsghdr, kRecvBatch> rx_msgs_{};
  Message rx_message_;  ///< every received record is read into this one
};

}  // namespace gridbox::net

#include "src/net/udp_transport.h"

#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <memory>
#include <utility>

#include "src/common/ensure.h"

namespace gridbox::net {

sockaddr_in loopback_address(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

namespace {

bool same_address(const sockaddr_in& a, const sockaddr_in& b) {
  return a.sin_port == b.sin_port && a.sin_addr.s_addr == b.sin_addr.s_addr;
}

}  // namespace

UdpTransport::UdpTransport(Reactor& reactor, Options options)
    : reactor_(reactor), options_(options), peers_{this} {
  hooks_.recv_batch = [](int fd, mmsghdr* msgs, unsigned count) {
    return ::recvmmsg(fd, msgs, count, 0, nullptr);
  };
  hooks_.send_batch = [](int fd, mmsghdr* msgs, unsigned count) {
    return ::sendmmsg(fd, msgs, count, 0);
  };
  for (std::size_t i = 0; i < kBatch; ++i) {
    tx_msgs_[i].msg_hdr.msg_name = &tx_to_[i];
    tx_msgs_[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
    tx_msgs_[i].msg_hdr.msg_iov = &tx_iov_[i];
    tx_msgs_[i].msg_hdr.msg_iovlen = 1;
  }
  for (std::size_t i = 0; i < kRecvBatch; ++i) {
    rx_msgs_[i].msg_hdr.msg_iov = &rx_iov_[i];
    rx_msgs_[i].msg_hdr.msg_iovlen = 1;
  }

  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  expects(fd_ >= 0, "socket(2) failed");
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &options_.rcvbuf_bytes,
                     sizeof(options_.rcvbuf_bytes));
  for (std::uint32_t port = options_.port_base;; ++port) {
    const sockaddr_in addr = loopback_address(static_cast<std::uint16_t>(port));
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      break;
    }
    if (errno != EADDRINUSE || port >= 65535) {
      ::close(fd_);
      expects(false, "bind(2) failed: no free loopback port at or above "
                     "port_base");
    }
  }
  socklen_t len = sizeof(self_);
  expects(::getsockname(fd_, reinterpret_cast<sockaddr*>(&self_), &len) == 0,
          "getsockname(2) failed");
  reactor_.add_fd(fd_, *this);
}

UdpTransport::~UdpTransport() {
  reactor_.remove_fd(fd_);
  ::close(fd_);
}

std::uint16_t UdpTransport::local_port() const {
  return ntohs(self_.sin_port);
}

const sockaddr_in& UdpTransport::address_of(MemberId id) const {
  if (addresses_ == nullptr || id.value() >= addresses_->size()) return self_;
  return (*addresses_)[id.value()];
}

Endpoint* UdpTransport::endpoint_of(MemberId id) const {
  return id.value() < endpoints_.size() ? endpoints_[id.value()] : nullptr;
}

void UdpTransport::attach(MemberId id, Endpoint& endpoint) {
  expects(id.is_valid(), "cannot attach the invalid member id");
  expects(same_address(address_of(id), self_),
          "attached a member the address table places on another socket");
  if (id.value() >= endpoints_.size()) endpoints_.resize(id.value() + 1);
  if (endpoints_[id.value()] == nullptr) ++attached_;
  endpoints_[id.value()] = &endpoint;
}

void UdpTransport::detach(MemberId id) {
  if (endpoint_of(id) == nullptr) return;
  endpoints_[id.value()] = nullptr;
  --attached_;
}

const NetworkStats& UdpTransport::stats() const { return stats_; }

const NetworkStats& UdpTransport::final_stats() const {
  // Frames read from a foreign sender can push the read count past the
  // handed one; loss is never negative.
  const std::uint64_t handed = frames_handed_.load(std::memory_order_acquire);
  const std::uint64_t accounted = frames_read_ + kernel_loss_;
  if (handed > accounted) {
    stats_.messages_dropped += handed - accounted;
    kernel_loss_ += handed - accounted;
  }
  return stats_;
}

void UdpTransport::add_peer(UdpTransport& peer) { peers_.push_back(&peer); }

void UdpTransport::set_addresses(std::shared_ptr<const AddressTable> addresses) {
  expects(stats_.messages_sent == 0, "install addresses before any send");
  addresses_ = std::move(addresses);
}

void UdpTransport::set_liveness(std::function<bool(MemberId)> is_alive) {
  is_alive_ = std::move(is_alive);
}

void UdpTransport::install_chaos(std::unique_ptr<ChaosSchedule> chaos) {
  expects(chaos != nullptr, "chaos schedule required");
  expects(stats_.messages_sent == 0, "install chaos before any send");
  chaos_ = std::move(chaos);
  chaos_->bind_clock([this]() { return reactor_.now(); });
}

void UdpTransport::set_hooks(Hooks hooks) {
  if (hooks.recv_batch) hooks_.recv_batch = std::move(hooks.recv_batch);
  if (hooks.send_batch) hooks_.send_batch = std::move(hooks.send_batch);
}

void UdpTransport::transmit(const Message& message) {
  // The header, not the kernel address, carries identity: every member of
  // this shard sends from the one shard socket.
  const std::size_t record = kDatagramHeaderBytes + message.frame.size();
  const std::size_t slot =
      open_datagram(address_of(message.destination), record);
  std::vector<std::uint8_t>& bytes = tx_bytes_[slot];
  const std::size_t at = bytes.size();
  bytes.resize(at + record);
  (void)encode_datagram(message, bytes.data() + at);
  ++tx_frames_[slot];
}

std::size_t UdpTransport::open_datagram(const sockaddr_in& to,
                                        std::size_t record) {
  // A destination's newest datagram in the outbox is its open one.
  for (std::size_t slot = tx_count_; slot-- > 0;) {
    if (!same_address(tx_to_[slot], to)) continue;
    if (tx_bytes_[slot].size() + record <= kMaxDatagramBytes) return slot;
    break;
  }
  if (tx_count_ == kBatch) flush();
  const std::size_t slot = tx_count_++;
  tx_to_[slot] = to;
  tx_bytes_[slot].clear();
  tx_frames_[slot] = 0;
  return slot;
}

void UdpTransport::flush() {
  for (std::size_t slot = 0; slot < tx_count_; ++slot) {
    tx_iov_[slot] = iovec{tx_bytes_[slot].data(), tx_bytes_[slot].size()};
  }
  std::size_t next = 0;
  while (next < tx_count_) {
    const int n = hooks_.send_batch(fd_, &tx_msgs_[next],
                                    static_cast<unsigned>(tx_count_ - next));
    if (n > 0) {
      for (const std::size_t end = next + static_cast<std::size_t>(n);
           next < end; ++next) {
        for (UdpTransport* peer : peers_) {
          if (same_address(peer->self_, tx_to_[next])) {
            peer->frames_handed_.fetch_add(tx_frames_[next],
                                           std::memory_order_release);
            break;
          }
        }
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EAGAIN/ENOBUFS: the kernel's queues are full. That is network loss,
    // which is precisely what these protocols are designed to survive —
    // the first unsent datagram is dropped with all of its frames, the
    // rest are retried.
    stats_.messages_dropped += tx_frames_[next];
    ++next;
  }
  tx_count_ = 0;
}

void UdpTransport::send(Message message) {
  ++stats_.messages_sent;
  stats_.bytes_sent += message.frame.size();
  if (chaos_ != nullptr) {
    ChaosDecision decision =
        chaos_->on_send(message.source, message.destination);
    if (decision.drop) {
      ++stats_.messages_dropped;
      return;
    }
    if (decision.extra_delay > SimTime::zero() ||
        !decision.duplicate_delays.empty()) {
      const SimTime base = reactor_.now() + decision.extra_delay;
      for (const SimTime offset : decision.duplicate_delays) {
        ++stats_.messages_duplicated;
        stats_.bytes_sent += message.frame.size();
        reactor_.schedule_at(base + offset,
                             [this, message]() { transmit(message); });
      }
      if (decision.extra_delay > SimTime::zero()) {
        reactor_.schedule_at(base, [this, message]() { transmit(message); });
        return;
      }
    }
  }
  transmit(message);
}

std::size_t UdpTransport::consume(const std::uint8_t* bytes,
                                  std::size_t size) {
  const std::size_t records = count_records(bytes, size);
  if (records == 0) {
    // Byte soup, or a datagram that does not split exactly into records:
    // count it once and keep the socket draining — never deliver any of
    // it, never crash.
    ++stats_.messages_malformed;
    return 0;
  }
  frames_read_ += records;
  for (std::size_t at = 0; at < size;) {
    at += read_record(bytes + at, rx_message_);
    deliver(rx_message_);
  }
  return records;
}

void UdpTransport::deliver(const Message& message) {
  if (!same_address(address_of(message.destination), self_)) {
    // A record for a member another socket serves: mis-addressed.
    ++stats_.messages_malformed;
    return;
  }
  Endpoint* endpoint = endpoint_of(message.destination);
  if (endpoint == nullptr ||
      (is_alive_ && !is_alive_(message.destination))) {
    ++stats_.messages_dead_dest;
    return;
  }
  ++stats_.messages_delivered;
  reactor_.telemetry().frames_delivered.fetch_add(1,
                                                 std::memory_order_relaxed);
  try {
    endpoint->on_message(message);
  } catch (const PreconditionError&) {
    // Well-framed datagram, undecodable payload: same contract as the
    // simulated network — count malformed, keep the node running.
    ++stats_.messages_malformed;
  }
}

void UdpTransport::on_readable(int fd) {
  if (rx_bytes_ == nullptr) {
    constexpr std::size_t kSlot = kMaxDatagramBytes + 1;
    rx_bytes_ = std::make_unique_for_overwrite<std::uint8_t[]>(kRecvBatch *
                                                               kSlot);
    for (std::size_t i = 0; i < kRecvBatch; ++i) {
      rx_iov_[i] = iovec{rx_bytes_.get() + i * kSlot, kSlot};
    }
  }
  // The budget counts frames and scales with the members this socket
  // serves, so one wake clears a phase's worth of deliveries at any N: a
  // flat per-socket cap lets deliveries at N = 10^4 queue past their
  // phases. A call asks for no more datagrams than frames are left, and
  // every datagram costs at least one, so a wake overshoots the budget by
  // at most the records of one batch.
  const std::size_t budget =
      options_.max_drain * std::max<std::size_t>(1, attached_);
  std::size_t spent = 0;
  std::size_t received = 0;
  while (spent < budget) {
    const unsigned want =
        static_cast<unsigned>(std::min(kRecvBatch, budget - spent));
    const int n = hooks_.recv_batch(fd, rx_msgs_.data(), want);
    if (n < 0) {
      if (errno == EINTR) {
        // Interrupted before a datagram was read: retry, but charged to
        // the budget like every other call — never a spin.
        reactor_.telemetry().eintr_retries.fetch_add(
            1, std::memory_order_relaxed);
        ++spent;
        continue;
      }
      // EAGAIN/EWOULDBLOCK: drained (or the wakeup was spurious). Any
      // other errno on a datagram socket is also just "nothing to read".
      break;
    }
    if (n == 0) break;
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      const std::size_t records = consume(
          static_cast<const std::uint8_t*>(rx_iov_[i].iov_base),
          rx_msgs_[i].msg_len);
      spent += std::max<std::size_t>(1, records);
    }
    received += static_cast<std::size_t>(n);
  }
  // A budget exhausted with the socket still hot: the reactor will wake
  // again immediately; the histogram records the whole wake's datagrams.
  reactor_.telemetry().drain_per_wake.observe(received);
}

}  // namespace gridbox::net

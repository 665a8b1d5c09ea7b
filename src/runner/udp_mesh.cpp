#include "src/runner/udp_mesh.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "src/common/rng.h"
#include "src/net/chaos.h"
#include "src/net/telemetry_socket.h"
#include "src/runner/udp_runtime.h"
#include "src/runner/world_setup.h"

namespace gridbox::runner {

/// Self-stopping periodic telemetry tick on the control shard: samples on
/// the reactor clock and stops rescheduling once the run resolves, so the
/// control shard's timer queue quiesces with the run.
struct UdpMesh::SamplerTick final : sim::TimerTarget {
  obs::TelemetrySampler* sampler = nullptr;
  net::Reactor* clock = nullptr;
  const std::function<bool()>* done = nullptr;

  bool on_timer(std::uint32_t /*timer_id*/) override {
    sampler->sample(clock->now());
    return !(*done)();
  }
};

UdpMesh::UdpMesh(const ExperimentConfig& config, std::uint16_t port_base,
                 std::size_t shards, const membership::Group& group) {
  const std::size_t count =
      shards > 0 ? shards
                 : std::max<std::size_t>(
                       1, std::min<std::size_t>(
                              {4, std::thread::hardware_concurrency(),
                               config.group_size}));
  // One socket and one wake eventfd per shard + the telemetry socket +
  // stdio + test-framework slack; fail early with the numbers instead of
  // mid-setup on socket().
  require_fd_capacity(2 * count + 64);

  const net::ChaosSpec chaos = net::ChaosSpec::parse(config.chaos_spec);
  const bool shim_active = chaos.affects_network() ||
                           config.ucast_loss > 0.0 ||
                           config.partition_loss >= 0.0;
  const Rng chaos_root = Rng(config.seed).derive(streams::kChaos);
  reactors_.reserve(count);
  transports_.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    reactors_.push_back(
        std::make_unique<net::Reactor>(net::Reactor::Options{}));
    net::UdpTransport::Options topt;
    topt.port_base = port_base;
    auto transport =
        std::make_unique<net::UdpTransport>(*reactors_.back(), topt);
    transport->set_liveness([&group](MemberId m) { return group.is_alive(m); });
    if (shim_active) {
      transport->install_chaos(std::make_unique<net::ChaosSchedule>(
          chaos, make_faults(config), config.group_size, chaos_root.derive(s)));
    }
    transports_.push_back(std::move(transport));
  }
  // Member m is addressed at its shard's socket; every shard shares the
  // table, installed before any send.
  auto addresses = std::make_shared<net::AddressTable>(config.group_size);
  for (std::uint32_t m = 0; m < config.group_size; ++m) {
    (*addresses)[m] =
        net::loopback_address(transport_of(MemberId(m)).local_port());
  }
  for (const auto& transport : transports_) {
    transport->set_addresses(addresses);
    for (const auto& peer : transports_) {
      if (peer != transport) transport->add_peer(*peer);
    }
  }

  std::vector<const obs::TelemetryLane*> lanes;
  lanes.reserve(count);
  for (const auto& reactor : reactors_) lanes.push_back(&reactor->telemetry());
  hub_ = std::make_unique<obs::TelemetryHub>(std::move(lanes));

  if (!config.telemetry.enabled) return;
  sampler_ = std::make_unique<obs::TelemetrySampler>(*hub_, config.telemetry);
  sampler_tick_ = std::make_unique<SamplerTick>();
  if (config.telemetry.udp_port != 0) {
    telemetry_socket_ = std::make_unique<net::TelemetrySocket>(
        control(), config.telemetry.udp_port,
        [sampler = sampler_.get()]() { return sampler->latest(); });
  }
}

UdpMesh::~UdpMesh() = default;

std::size_t UdpMesh::shard_of(MemberId m) const {
  return m.value() % shard_count();
}

net::Reactor& UdpMesh::reactor_of(MemberId m) const {
  return *reactors_[shard_of(m)];
}

net::UdpTransport& UdpMesh::transport_of(MemberId m) const {
  return *transports_[shard_of(m)];
}

void UdpMesh::post(MemberId m, sim::Action action) const {
  reactor_of(m).post(std::move(action));
}

void UdpMesh::count_timers(std::function<bool(const sim::TimerTarget*)> pred,
                           std::function<void(std::size_t)> done) const {
  // Built back-to-front so each hop knows its successor; the last hop lands
  // the total on the control shard.
  auto total = std::make_shared<std::size_t>(0);
  std::function<void()> next = [r0 = &control(), done = std::move(done),
                                total]() {
    r0->post([done, total]() { done(*total); });
  };
  for (std::size_t s = shard_count(); s-- > 0;) {
    next = [r = reactors_[s].get(), pred, total, next = std::move(next)]() {
      r->post([r, pred, total, next]() {
        *total += r->count_timers_where(pred);
        next();
      });
    };
  }
  next();
}

bool UdpMesh::run(const std::function<bool()>& done, SimTime deadline) {
  if (sampler_ != nullptr) {
    const SimTime interval = sampler_->interval();
    sampler_tick_->sampler = sampler_.get();
    sampler_tick_->clock = &control();
    sampler_tick_->done = &done;
    control().schedule_periodic(interval, interval, *sampler_tick_);
  }

  // The shard clocks start now, together: everything armed during setup
  // read a clock of zero, so a cohort's first round shares one deadline,
  // as at the simulator's t=0, and each shard fires it in one pass.
  const auto epoch = std::chrono::steady_clock::now();
  for (const auto& reactor : reactors_) reactor->bind_epoch(epoch);

  std::vector<std::thread> threads;
  std::vector<char> shard_done(shard_count(), 0);
  std::vector<std::exception_ptr> errors(shard_count());
  threads.reserve(shard_count());
  for (std::size_t s = 0; s < shard_count(); ++s) {
    threads.emplace_back([&, s]() {
      try {
        shard_done[s] = reactors_[s]->run_until(done, deadline) ? 1 : 0;
      } catch (...) {
        errors[s] = std::current_exception();
      }
      // done() is global: a shard sleeping with no timer due would not
      // probe it again before the deadline. Wake the peers to look now.
      for (const auto& reactor : reactors_) {
        if (reactor != reactors_[s]) reactor->wake();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  // Final sample post-join: the joins ordered every shard's lane writes
  // before this read, so the closing record is exact, not torn.
  if (sampler_ != nullptr) sampler_->sample(control().now());
  return std::all_of(shard_done.begin(), shard_done.end(),
                     [](char d) { return d != 0; });
}

net::NetworkStats UdpMesh::network() const {
  net::NetworkStats total;
  for (const auto& transport : transports_) {
    const net::NetworkStats& s = transport->final_stats();
    total.messages_sent += s.messages_sent;
    total.messages_dropped += s.messages_dropped;
    total.messages_dead_dest += s.messages_dead_dest;
    total.messages_delivered += s.messages_delivered;
    total.messages_malformed += s.messages_malformed;
    total.messages_duplicated += s.messages_duplicated;
    total.bytes_sent += s.bytes_sent;
  }
  return total;
}

}  // namespace gridbox::runner

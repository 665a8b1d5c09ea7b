#include "src/runner/udp_runtime.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/ensure.h"
#include "src/membership/group.h"
#include "src/net/chaos.h"
#include "src/runner/udp_mesh.h"
#include "src/runner/world_setup.h"

namespace gridbox::runner {

namespace {

/// Per-shard completion counters folded into one atomic: each member
/// settles exactly once — when its node finishes (NodeEnv::on_finished,
/// on its shard thread) or when it crashes (Group crash listener) — and
/// the run is done when the fold hits zero. Replaces the old done() probe
/// that scanned every node from every shard thread each loop iteration.
class CompletionBoard {
 public:
  explicit CompletionBoard(std::size_t members)
      : settled_(new std::atomic<bool>[members]),
        remaining_(members) {
    for (std::size_t i = 0; i < members; ++i) {
      settled_[i].store(false, std::memory_order_relaxed);
    }
  }

  /// Idempotent: a member that finished and later crashes (or crashes on
  /// two paths) decrements the fold exactly once.
  void settle(MemberId m) {
    if (!settled_[m.value()].exchange(true, std::memory_order_acq_rel)) {
      remaining_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  [[nodiscard]] bool done() const {
    return remaining_.load(std::memory_order_acquire) == 0;
  }

 private:
  std::unique_ptr<std::atomic<bool>[]> settled_;
  std::atomic<std::size_t> remaining_;
};

}  // namespace

std::uint64_t raise_fd_limit(std::uint64_t need) {
  rlimit limit{};
  expects(getrlimit(RLIMIT_NOFILE, &limit) == 0, "getrlimit failed");
  if (limit.rlim_cur >= need) return limit.rlim_cur;
  rlimit raised = limit;
  raised.rlim_cur = limit.rlim_max == RLIM_INFINITY
                        ? need
                        : std::min<rlim_t>(limit.rlim_max, need);
  if (raised.rlim_cur > limit.rlim_cur) {
    (void)setrlimit(RLIMIT_NOFILE, &raised);
    const rlim_t old_soft = limit.rlim_cur;
    expects(getrlimit(RLIMIT_NOFILE, &raised) == 0, "getrlimit failed");
    if (raised.rlim_cur > old_soft) {
      // Visible at startup, not silent: a run that needed more descriptors
      // than the inherited soft limit says so once, with the numbers.
      std::fprintf(stderr,
                   "gridbox: raised RLIMIT_NOFILE soft limit %llu -> %llu "
                   "(need %llu fds)\n",
                   static_cast<unsigned long long>(old_soft),
                   static_cast<unsigned long long>(raised.rlim_cur),
                   static_cast<unsigned long long>(need));
    }
    return raised.rlim_cur;
  }
  return limit.rlim_cur;
}

void require_fd_capacity(std::uint64_t need) {
  const std::uint64_t got = raise_fd_limit(need);
  if (got >= need) return;
  rlimit limit{};
  (void)getrlimit(RLIMIT_NOFILE, &limit);
  const auto hard = limit.rlim_max == RLIM_INFINITY
                        ? std::string("unlimited")
                        : std::to_string(limit.rlim_max);
  throw PreconditionError(
      "this run needs " + std::to_string(need) +
      " file descriptors (one UDP socket per reactor shard plus slack) "
      "but RLIMIT_NOFILE allows only " + std::to_string(got) +
      " (hard limit " + hard +
      "); raise it (e.g. `ulimit -n " + std::to_string(need) +
      "`) or run with fewer --threads");
}

UdpRunResult run_udp_experiment(const UdpRunConfig& udp_config) {
  const ExperimentConfig& config = udp_config.experiment;
  const net::ChaosSpec chaos = one_shot_chaos(config);

  // The identical world run_experiment derives, on a real-time substrate.
  const Rng root(config.seed);
  World world(config, root);
  membership::Group& group = world.group;
  UdpMesh mesh(config, udp_config.port_base, udp_config.shards, group);
  const bool concurrent = mesh.shard_count() > 1;
  if (world.audit != nullptr) world.audit->set_concurrent(concurrent);
  protocols::StateArena arena(group.shared_members());
  arena.build_phase_tables(world.hier);

  // Completion: every member settles once, on finish or on crash; done()
  // is a single atomic read from any shard thread.
  CompletionBoard board(config.group_size);
  group.set_crash_listener([&board](MemberId m) { board.settle(m); });

  // Scripted crashes fire as reactor actions on the member's own shard;
  // liveness publication is atomic, so other shards observe it safely.
  for (const net::CrashEvent& event : chaos.crashes) {
    mesh.reactor_of(event.member)
        .schedule_at(event.at, [&group, m = event.member]() { group.crash(m); });
  }

  // The Theorem-1 deadline is meaningful on the virtual clock; on a real
  // host the run-level deadline (a generous multiple of the horizon) plays
  // that role, so scheduler noise cannot fake a violation. The checker
  // never throws across reactor threads: it collects, reported post-join.
  const SimTime deadline =
      scaled_deadline(protocol_horizon(config, world.hier.num_phases()),
                      udp_config.deadline_factor, kDeadlineFloor);
  const std::unique_ptr<protocols::InvariantChecker> checker =
      make_checker(config, world.hier, world.audit.get(), &mesh.control(),
                   deadline, /*fail_fast=*/false, concurrent, nullptr);
  const std::vector<std::unique_ptr<protocols::ProtocolNode>> nodes =
      make_nodes(config, world, root, arena, checker.get(),
                 [&mesh, &board](MemberId m, protocols::NodeEnv& env) {
                   env.scheduler = &mesh.reactor_of(m);
                   env.network = &mesh.transport_of(m);
                   env.on_finished = [&board](MemberId id) {
                     board.settle(id);
                   };
                 });
  for (const auto& node : nodes) {
    mesh.transport_of(node->self()).attach(node->self(), *node);
  }
  // Still single-threaded here: start() arms each node's timers on its
  // shard reactor before any loop runs; the mesh's thread launch publishes
  // everything built so far to the shard threads.
  for (const auto& node : nodes) node->start(SimTime::zero());

  // Crash clock (paper §7 pf) on the control shard. It ticks until the
  // board settles: one atomic read, the same question mesh.run() asks.
  CrashClock crash_clock(config, group, [&board]() { return !board.done(); });
  crash_clock.arm(mesh.control());

  UdpRunResult result;
  result.completed = mesh.run([&board]() { return board.done(); }, deadline);
  result.elapsed = mesh.control().now();
  if (checker != nullptr) {
    checker->expect_all_finished(group.alive_members());
    result.invariant_violations = checker->violations().size();
    if (!checker->violations().empty()) {
      result.first_violation = checker->violations().front().what;
    }
  }
  result.network = mesh.network();
  result.measurement =
      protocols::measure_run(group, nodes, world.votes, config.aggregate,
                             result.network, world.audit.get());
  // The loop counts live in the reactors' lanes; fold them in shard order.
  const obs::LaneSnapshot loop = mesh.telemetry().snapshot_total();
  result.shards = mesh.shard_count();
  result.timers_fired = loop.timers_fired;
  result.polls = loop.polls;
  result.eintr_retries = loop.eintr_retries;
  return result;
}

}  // namespace gridbox::runner

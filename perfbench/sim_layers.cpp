// Per-layer times of the simulator, protocol and membership layers, taken
// on the simulated twin of an aggregate: its ExperimentConfig run by
// runner::run_experiment, then by a traced rebuild of run_experiment's
// world from the public world_setup.h, sim::Simulator, net::SimNetwork,
// StateArena and InvariantChecker pieces.
//
// The traced rebuild wraps four seams in timing decorators:
// net::Transport::send, net::Endpoint::on_message, the sim::Scheduler timer
// targets, and the GossipTrace hook in front of the checker. Spans nest on
// one thread; a span's self time is its duration minus its children's,
// accumulated per layer in memory.

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench/bench.h"
#include "src/hierarchy/hierarchy.h"
#include "src/membership/crash_model.h"
#include "src/membership/group.h"
#include "src/net/network.h"
#include "src/protocols/arena.h"
#include "src/protocols/invariant_checker.h"
#include "src/protocols/protocol_stats.h"
#include "src/runner/experiment.h"
#include "src/runner/world_setup.h"
#include "src/sim/simulator.h"

namespace perfbench {

namespace {

using namespace gridbox;

enum Layer : std::size_t { kSimLoop, kSend, kRound, kRecv, kCheck, kCrash, kLayers };

/// Exclusive-time accounting over nested spans on one thread.
class Spans {
 public:
  void enter(Layer layer) { stack_.push_back({layer, now_ns(), 0}); }
  void leave() {
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = now_ns() - frame.start_ns;
    self_ns[frame.layer] += duration - frame.child_ns;
    ++count[frame.layer];
    if (!stack_.empty()) stack_.back().child_ns += duration;
  }

  std::array<std::int64_t, kLayers> self_ns{};
  std::array<std::uint64_t, kLayers> count{};

 private:
  struct Frame {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  std::vector<Frame> stack_;
};

class Span {
 public:
  Span(Spans& spans, Layer layer) : spans_(spans) { spans_.enter(layer); }
  ~Span() { spans_.leave(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans& spans_;
};

/// GossipTrace decorator in front of the invariant checker: times every
/// hook and counts knowledge gains that arrived over the wire.
class TimedTrace final : public protocols::gossip::GossipTrace {
 public:
  TimedTrace(GossipTrace& next, Spans& spans) : next_(next), spans_(spans) {}

  void on_phase_entered(MemberId member, std::size_t phase) override {
    Span span(spans_, kCheck);
    next_.on_phase_entered(member, phase);
  }
  void on_round_gossiped(MemberId member, std::size_t phase,
                         std::uint32_t fanout) override {
    Span span(spans_, kCheck);
    next_.on_round_gossiped(member, phase, fanout);
  }
  void on_value_learned(MemberId member, std::size_t phase,
                        std::uint32_t index) override {
    Span span(spans_, kCheck);
    next_.on_value_learned(member, phase, index);
  }
  void on_knowledge_gained(MemberId member, std::size_t phase,
                           std::uint32_t index, MemberId from,
                           std::uint32_t votes,
                           protocols::gossip::GainKind kind) override {
    if (kind != protocols::gossip::GainKind::kLocal) ++wire_gains;
    Span span(spans_, kCheck);
    next_.on_knowledge_gained(member, phase, index, from, votes, kind);
  }
  void on_phase_concluded(MemberId member, std::size_t phase,
                          protocols::gossip::PhaseEnd how,
                          std::uint32_t votes) override {
    Span span(spans_, kCheck);
    next_.on_phase_concluded(member, phase, how, votes);
  }
  void on_finished(MemberId member, std::uint32_t votes) override {
    Span span(spans_, kCheck);
    next_.on_finished(member, votes);
  }

  std::uint64_t wire_gains = 0;

 private:
  GossipTrace& next_;
  Spans& spans_;
};

/// Endpoint decorator: times each delivery into the node and counts the
/// deliveries that taught the node something.
class TimedEndpoint final : public net::Endpoint {
 public:
  TimedEndpoint(net::Endpoint& inner, Spans& spans, const TimedTrace& trace,
                std::uint64_t& useful)
      : inner_(inner), spans_(spans), trace_(trace), useful_(useful) {}

  void on_message(const net::Message& message) override {
    const std::uint64_t gains = trace_.wire_gains;
    {
      Span span(spans_, kRecv);
      inner_.on_message(message);
    }
    if (trace_.wire_gains != gains) ++useful_;
  }

 private:
  net::Endpoint& inner_;
  Spans& spans_;
  const TimedTrace& trace_;
  std::uint64_t& useful_;
};

/// Transport decorator: times each send (fault model, latency draw and
/// enqueueing of the delivery event).
class TimedTransport final : public net::Transport {
 public:
  TimedTransport(net::SimNetwork& inner, Spans& spans)
      : inner_(inner), spans_(spans) {}

  void attach(MemberId id, net::Endpoint& endpoint) override {
    inner_.attach(id, endpoint);
  }
  void detach(MemberId id) override { inner_.detach(id); }
  void send(net::Message message) override {
    Span span(spans_, kSend);
    inner_.send(std::move(message));
  }
  [[nodiscard]] const net::NetworkStats& stats() const override {
    return inner_.stats();
  }

 private:
  net::SimNetwork& inner_;
  Spans& spans_;
};

class TimedTarget final : public sim::TimerTarget {
 public:
  TimedTarget(sim::TimerTarget& inner, Spans& spans)
      : inner_(inner), spans_(spans) {}
  bool on_timer(std::uint32_t timer_id) override {
    Span span(spans_, kRound);
    return inner_.on_timer(timer_id);
  }

 private:
  sim::TimerTarget& inner_;
  Spans& spans_;
};

/// Scheduler decorator: every timer a node arms fires inside a round span.
/// Wrapping keeps the simulator's event order, so the run is unchanged.
class TimedScheduler final : public sim::Scheduler {
 public:
  TimedScheduler(sim::Simulator& inner, Spans& spans, std::size_t targets)
      : inner_(inner), spans_(spans) {
    targets_.reserve(targets);
  }

  [[nodiscard]] SimTime now() const override { return inner_.now(); }
  void schedule_at(SimTime time, sim::Action action) override {
    inner_.schedule_at(time, wrap(std::move(action)));
  }
  void schedule_after(SimTime delay, sim::Action action) override {
    inner_.schedule_after(delay, wrap(std::move(action)));
  }
  void schedule_periodic(SimTime start, SimTime interval,
                         sim::TimerTarget& target,
                         std::uint32_t timer_id) override {
    inner_.schedule_periodic(start, interval, timed(target), timer_id);
  }
  void schedule_timer_at(SimTime time, sim::TimerTarget& target,
                         std::uint32_t timer_id) override {
    inner_.schedule_timer_at(time, timed(target), timer_id);
  }

 private:
  sim::Action wrap(sim::Action action) {
    return [spans = &spans_, action = std::move(action)]() {
      Span span(*spans, kRound);
      action();
    };
  }
  TimedTarget& timed(sim::TimerTarget& target) {
    auto& slot = targets_[&target];
    if (!slot) slot = std::make_unique<TimedTarget>(target, spans_);
    return *slot;
  }

  sim::Simulator& inner_;
  Spans& spans_;
  std::unordered_map<sim::TimerTarget*, std::unique_ptr<TimedTarget>> targets_;
};

struct TracedSim {
  protocols::RunMeasurement measurement;
  net::NetworkStats network;
  std::uint64_t events = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t useful_recvs = 0;
  Spans spans;
  double setup_s = 0.0;
  double final_check_s = 0.0;
  double measure_s = 0.0;
  double teardown_s = 0.0;
  double wall_s = 0.0;
};

/// run_experiment's world and run, call for call, with the four seams
/// decorated. Must reproduce run_experiment's sim_events and messages.
void traced_sim_run(const runner::ExperimentConfig& config, TracedSim& out) {
  const auto start = Clock::now();
  Clock::time_point teardown_start;
  {
    Spans& spans = out.spans;
    const Rng root(config.seed);
    membership::Group group(config.group_size);
    Rng vote_rng = root.derive(runner::streams::kVote);
    const agg::VoteTable votes = runner::make_votes(config, group, vote_rng);
    const std::unique_ptr<hashing::HashFunction> hash =
        runner::make_hash(config, group, root);
    hierarchy::GridBoxHierarchy hier(config.group_size,
                                     runner::hierarchy_fanout(config), *hash);

    sim::Simulator simulator;
    net::SimNetwork network(
        simulator, runner::make_faults(config),
        std::make_unique<net::UniformLatency>(config.latency_lo,
                                              config.latency_hi),
        root.derive(runner::streams::kNet));
    network.set_liveness([&group](MemberId m) { return group.is_alive(m); });

    const std::unique_ptr<agg::AuditRegistry> audit =
        runner::make_audit(config, group, hier);
    protocols::StateArena arena(group.shared_members());
    arena.build_phase_tables(hier);
    simulator.reserve_events(4 * config.group_size);
    simulator.set_event_limit(std::max<std::uint64_t>(
        500'000'000, 1000 * static_cast<std::uint64_t>(config.group_size)));

    TimedScheduler scheduler(simulator, spans, config.group_size);
    TimedTransport transport(network, spans);
    protocols::NodeEnv env;
    env.scheduler = &scheduler;
    env.network = &transport;
    env.hierarchy = &hier;
    env.audit = audit.get();
    env.arena = &arena;
    env.is_alive = [&group](MemberId m) { return group.is_alive(m); };
    env.kind = config.aggregate;

    protocols::InvariantChecker::Config icfg;
    icfg.group_size = config.group_size;
    icfg.fanout = config.gossip.k;
    icfg.num_phases = hier.num_phases();
    icfg.scheduler = &simulator;
    icfg.audit = audit.get();
    icfg.deadline = runner::protocol_horizon(config, hier.num_phases());
    protocols::InvariantChecker checker(icfg);
    TimedTrace trace(checker, spans);
    runner::ExperimentConfig node_config = config;
    node_config.gossip.trace = &trace;
    env.trace = &trace;

    Rng view_rng = root.derive(runner::streams::kView);
    std::vector<std::unique_ptr<protocols::ProtocolNode>> nodes;
    std::vector<std::unique_ptr<TimedEndpoint>> endpoints;
    nodes.reserve(config.group_size);
    endpoints.reserve(config.group_size);
    for (const MemberId m : group.members()) {
      auto node = runner::make_node(
          node_config, m, votes.of(m),
          runner::make_view(config, group, m, view_rng), env,
          root.derive(runner::streams::kNodeBase + m.value()));
      endpoints.push_back(std::make_unique<TimedEndpoint>(*node, spans, trace,
                                                          out.useful_recvs));
      network.attach(m, *endpoints.back());
      nodes.push_back(std::move(node));
    }
    for (auto& node : nodes) node->start(SimTime::zero());

    const membership::PerRoundCrash crash_model(config.crash_probability);
    Rng crash_rng = root.derive(runner::streams::kCrash);
    std::uint64_t round = 0;
    if (config.crash_probability > 0.0) {
      simulator.schedule_periodic(
          config.round_duration(), config.round_duration(),
          [&]() {
            Span span(spans, kCrash);
            (void)group.apply_round_crashes(crash_model, round++, crash_rng);
            for (const auto& node : nodes) {
              if (!node->finished() && group.is_alive(node->self())) return true;
            }
            return false;
          });
    }
    out.setup_s = seconds_since(start);

    {
      Span span(spans, kSimLoop);
      out.events = simulator.run();
    }

    auto t = Clock::now();
    std::vector<MemberId> alive;
    for (const MemberId m : group.members()) {
      if (group.is_alive(m)) alive.push_back(m);
    }
    checker.expect_all_finished(alive);
    out.final_check_s = seconds_since(t);

    t = Clock::now();
    out.measurement = protocols::measure_run(group, nodes, votes,
                                             config.aggregate, network.stats(),
                                             audit.get());
    out.measure_s = seconds_since(t);
    out.network = network.stats();
    out.peak_pending = simulator.peak_pending_events();
    teardown_start = Clock::now();
  }
  out.teardown_s = seconds_since(teardown_start);
  out.wall_s = seconds_since(start);
}

/// Share of the traced wall that no layer accounts for.
constexpr double kAttributionTolerance = 0.05;

}  // namespace

struct SimLayers::Totals {
  std::array<double, kLayers> self_s{};
  std::array<double, kLayers> counts{};
  double events = 0, peak_pending = 0, useful = 0, measure_s = 0, check_s = 0;
  std::vector<double> overheads, unattributed;
  std::size_t traced = 0;
  /// (sim_events, messages) of the first untraced run of each seed.
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> fingerprints;
};

SimLayers::SimLayers() : totals_(std::make_unique<Totals>()) {}
SimLayers::~SimLayers() = default;

void SimLayers::add(const runner::ExperimentConfig& config, Report& report) {
  Totals& totals = *totals_;
  ++report.attempted;
  try {
    auto t = Clock::now();
    const runner::RunResult plain = runner::run_experiment(config);
    const double plain_wall = seconds_since(t);
    TracedSim run;
    traced_sim_run(config, run);

    std::string problem = measurement_problem(run.measurement);
    const std::pair<std::uint64_t, std::uint64_t> fingerprint{
        plain.sim_events, plain.network.messages_sent};
    const auto [it, first] = totals.fingerprints.emplace(config.seed, fingerprint);
    if (!first && it->second != fingerprint) {
      problem = "sim_events/network_messages differ between two runs of seed " +
                std::to_string(config.seed);
    } else if (run.events != plain.sim_events ||
               run.network.messages_sent != plain.network.messages_sent ||
               run.measurement.network_messages !=
                   plain.measurement.network_messages ||
               run.measurement.mean_completeness !=
                   plain.measurement.mean_completeness) {
      problem = "traced run diverged from run_experiment at seed " +
                std::to_string(config.seed) + ": events " +
                std::to_string(run.events) + " vs " +
                std::to_string(plain.sim_events) + ", messages " +
                std::to_string(run.network.messages_sent) + " vs " +
                std::to_string(plain.network.messages_sent);
    }
    double attributed =
        run.setup_s + run.final_check_s + run.measure_s + run.teardown_s;
    for (const std::int64_t ns : run.spans.self_ns) {
      attributed += static_cast<double>(ns) * 1e-9;
    }
    const double gap = std::abs(run.wall_s - attributed) / run.wall_s;
    if (problem.empty() && gap > kAttributionTolerance) {
      problem = "exclusive layer times miss the traced wall by " +
                std::to_string(gap * 100.0) + "%";
    }
    if (!problem.empty()) {
      report.fail(problem);
      return;
    }
    ++totals.traced;
    for (std::size_t l = 0; l < kLayers; ++l) {
      totals.self_s[l] += static_cast<double>(run.spans.self_ns[l]) * 1e-9;
      totals.counts[l] += static_cast<double>(run.spans.count[l]);
    }
    totals.events += static_cast<double>(run.events);
    totals.peak_pending += static_cast<double>(run.peak_pending);
    totals.useful += static_cast<double>(run.useful_recvs);
    totals.measure_s += run.measure_s;
    totals.check_s += run.final_check_s;
    totals.overheads.push_back(run.wall_s / plain_wall - 1.0);
    totals.unattributed.push_back(gap);
  } catch (const std::exception& e) {
    report.fail(e.what());
  }
}

void SimLayers::report(Report& report) const {
  const Totals& totals = *totals_;
  const auto& self_s = totals.self_s;
  const auto& counts = totals.counts;
  const double n = static_cast<double>(totals.traced);
  const auto per = [n](double total) { return ratio(total, n); };
  report.notes.push_back(
      "simulated twins: " + std::to_string(totals.traced) +
      ", each checked against an untraced run_experiment at the same seed;"
      " their decorators cost " +
      std::to_string(median(totals.overheads) * 100.0) + "% of the wall");
  report.add("sim.self_s", per(self_s[kSimLoop]), "s");
  report.add("sim.events", per(totals.events), "count");
  report.add("sim.ns_per_event", ratio(self_s[kSimLoop] * 1e9, totals.events),
             "ns");
  report.add("sim.peak_pending", per(totals.peak_pending), "count");
  report.add("net.send_s", per(self_s[kSend]), "s");
  report.add("net.ns_per_send", ratio(self_s[kSend] * 1e9, counts[kSend]), "ns");
  report.add("protocols.round_s", per(self_s[kRound]), "s");
  report.add("protocols.rounds", per(counts[kRound]), "count");
  report.add("protocols.recv_s", per(self_s[kRecv]), "s");
  report.add("protocols.recvs", per(counts[kRecv]), "count");
  report.add("protocols.check_s", per(self_s[kCheck] + totals.check_s), "s");
  report.add("protocols.measure_s", per(totals.measure_s), "s");
  report.add("protocols.useful_recv_frac", ratio(totals.useful, counts[kRecv]),
             "fraction");
  report.add("membership.crash_clock_s", per(self_s[kCrash]), "s");
  report.add("obs.unattributed_frac", median(totals.unattributed), "fraction");
}

}  // namespace perfbench

#include "src/service/service.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/ensure.h"
#include "src/hashing/fair_hash.h"
#include "src/net/network.h"
#include "src/runner/udp_mesh.h"
#include "src/runner/world_setup.h"

namespace gridbox::service {

namespace {

/// Nearest-rank percentile over a sorted sample (zero when empty).
SimTime percentile(const std::vector<SimTime>& sorted, double p) {
  if (sorted.empty()) return SimTime::zero();
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const auto i = static_cast<std::size_t>(rank + 0.5);
  return sorted[std::min(i, sorted.size() - 1)];
}

}  // namespace

ServiceEngine::Lineage::Lineage(std::size_t group_size,
                                const sim::Scheduler& clock)
    : tracker({.group_size = group_size}),
      observer({.clock = &clock, .group_size = group_size,
                .lineage = &tracker}) {}

ServiceEngine::ServiceEngine(const ServiceConfig& config, InstanceMux& mux,
                             membership::Group& shared_group,
                             Substrate substrate)
    : config_(config),
      mux_(mux),
      shared_group_(shared_group),
      substrate_(std::move(substrate)),
      crash_clock_(config.experiment, shared_group, [this]() {
        return !done_.load(std::memory_order_relaxed);
      }) {
  const runner::ExperimentConfig& xc = config_.experiment;
  expects(xc.group_size >= 2, "need at least two members");
  expects(config_.instances >= 1, "need at least one instance");
  expects(config_.epoch_interval > SimTime::zero(),
          "epoch interval must be positive");
  expects(config_.max_in_flight >= 1, "in-flight window must be at least 1");
  expects((substrate_.simulator != nullptr) != (substrate_.mesh != nullptr),
          "substrate: exactly one of simulator and mesh");
  control_ = substrate_.simulator != nullptr
                 ? static_cast<sim::Scheduler*>(substrate_.simulator)
                 : &substrate_.mesh->control();
  expects(shared_group_.size() == xc.group_size,
          "shared group size must match the experiment config");

  chaos_ = net::ChaosSpec::parse(xc.chaos_spec);
  for (const net::ChurnEvent& e : chaos_.joins) {
    expects(e.member.value() < xc.group_size, "join member outside the group");
  }
  for (const net::ChurnEvent& e : chaos_.recovers) {
    expects(e.member.value() < xc.group_size,
            "recover member outside the group");
  }

  scan_interval_ = xc.round_duration();

  // Deadlines are sized from the protocol horizon. The phase count is
  // structural (it depends on N and K, not on the per-instance hash salt),
  // so a probe hierarchy stands in for every instance's.
  const hashing::FairHash probe_hash(0);
  const hierarchy::GridBoxHierarchy probe(
      xc.group_size, runner::hierarchy_fanout(xc), probe_hash);
  const SimTime horizon = runner::protocol_horizon(xc, probe.num_phases());
  instance_deadline_ = runner::scaled_deadline(
      horizon, config_.deadline_factor, runner::kDeadlineFloor);
  // Backstop for the event loop: even a fully serialized stream (every
  // launch deferred behind a failing predecessor) resolves within this.
  const auto n = static_cast<SimTime::underlying>(config_.instances);
  global_deadline_ =
      SimTime::micros(config_.epoch_interval.ticks() * n +
                      instance_deadline_.ticks() * (n + 1));
}

void ServiceEngine::begin() {
  // Crashes from any source (churn script, chaos crash directives, the
  // per-round pf model) fan into every running instance's membership view.
  shared_group_.set_crash_listener([this](MemberId m) { fan_crash(m); });

  // Joiners are absent from service start: they participate in nothing
  // until their join time, then enter at the next epoch boundary.
  for (const net::ChurnEvent& e : chaos_.joins) {
    shared_group_.crash(e.member);
  }
  for (const net::ChurnEvent& e : chaos_.joins) {
    control_->schedule_at(
        e.at, [this, m = e.member]() { shared_group_.recover(m); });
  }
  for (const net::ChurnEvent& e : chaos_.recovers) {
    control_->schedule_at(
        e.at, [this, m = e.member]() { shared_group_.recover(m); });
  }
  // Scripted chaos crashes are service-wide events here (the one-shot
  // runners schedule these themselves; the engine owns them in a service
  // run so they hit the shared view exactly once).
  for (const net::CrashEvent& e : chaos_.crashes) {
    control_->schedule_at(
        e.at, [this, m = e.member]() { shared_group_.crash(m); });
  }

  crash_clock_.arm(*control_);

  for (std::size_t i = 0; i < config_.instances; ++i) {
    const SimTime due = SimTime::micros(
        config_.epoch_interval.ticks() * static_cast<SimTime::underlying>(i));
    control_->schedule_at(
        due, [this, id = static_cast<std::uint32_t>(i)]() {
          on_launch_due(id);
        });
  }

  control_->schedule_after(scan_interval_, [this]() { scan(); });
}

void ServiceEngine::fan_crash(MemberId member) {
  for (auto& [id, inst] : live_) {
    if (inst->state == State::kRunning && inst->world.group.is_alive(member)) {
      inst->world.group.crash(member);
      if (inst->lineage) inst->lineage->observer.on_crash(member);
    }
  }
}

void ServiceEngine::on_launch_due(std::uint32_t id) {
  // The epoch's cohort is fixed at its due time: deferral delays a launch,
  // never changes who participates, so cohorts cannot depend on how fast
  // the substrate drains the window.
  Due due{id, shared_group_.alive_members()};
  // Launches must stay in id order (the mux's monotone id space), so a due
  // epoch also defers while older deferred launches are still queued.
  if (!deferred_.empty() || counts_.in_flight >= config_.max_in_flight) {
    deferred_.push_back(std::move(due));
    ++counts_.deferred;
    counts_.note_occupancy(deferred_.size());
    return;
  }
  launch(due);
}

void ServiceEngine::try_launches() {
  while (!deferred_.empty() && counts_.in_flight < config_.max_in_flight) {
    const Due due = std::move(deferred_.front());
    deferred_.pop_front();
    launch(due);
  }
}

void ServiceEngine::launch(const Due& due) {
  const std::uint32_t id = due.id;
  const runner::ExperimentConfig& xc = config_.experiment;
  const SimTime now = control_->now();

  // Per-instance world off an instance-specific root, so every epoch
  // aggregates fresh votes over a fresh hash salt (hence a fresh hierarchy)
  // — and both substrates derive bit-identical worlds for the differential
  // oracle.
  const Rng inst_root = Rng(xc.seed).derive(kInstanceWorld).derive(id);
  auto inst = std::make_unique<Instance>(id, xc, inst_root);
  runner::World& world = inst->world;
  // With several reactor shards, this instance's nodes register votes and
  // merges from every shard concurrently; arm the registry's internal lock.
  if (world.audit != nullptr && shards() > 1) {
    world.audit->set_concurrent(true);
  }

  if (!arena_pool_.empty()) {
    inst->arena = std::move(arena_pool_.back());
    arena_pool_.pop_back();
    inst->arena->recycle(world.group.shared_members(), world.hier);
  } else {
    inst->arena =
        std::make_unique<protocols::StateArena>(world.group.shared_members());
    inst->arena->build_phase_tables(world.hier);
  }

  // To the instance, everyone outside the epoch's cohort is crashed from
  // the start; so is a cohort member that crashed while the launch waited
  // (as if the crash had fanned into a running instance).
  std::vector<bool> in_cohort(xc.group_size, false);
  for (const MemberId m : due.cohort) in_cohort[m.value()] = true;
  for (const MemberId m : world.group.members()) {
    if (!in_cohort[m.value()]) world.group.crash(m);
  }
  inst->participants = world.group.alive_count();
  for (const MemberId m : due.cohort) {
    if (!shared_group_.is_alive(m)) world.group.crash(m);
  }

  inst->launched_at = now;
  inst->deadline = now + instance_deadline_;

  // Observability chain: node -> checker -> observer -> lineage (the
  // checker forwards before checking, so lineage keeps the offending event
  // too). The members the instance starts without are reported crashed,
  // since measure_run counts them as crashed too.
  protocols::gossip::GossipTrace* tail = nullptr;
  if (config_.collect_lineage && substrate_.simulator != nullptr) {
    inst->lineage =
        std::make_unique<Lineage>(xc.group_size, *substrate_.simulator);
    inst->lineage->tracker.capture_hierarchy(world.hier);
    for (const MemberId m : world.group.members()) {
      if (!world.group.is_alive(m)) inst->lineage->observer.on_crash(m);
    }
    tail = &inst->lineage->observer;
  }
  // Theorem 1 is meaningful on the virtual clock; on a real host the
  // instance deadline (a generous multiple of the horizon) plays that
  // role, so scheduler noise cannot fake a violation.
  const bool on_sim = substrate_.simulator != nullptr;
  inst->checker = runner::make_checker(
      xc, world.hier, world.audit.get(), control_,
      on_sim ? now + runner::protocol_horizon(xc, world.hier.num_phases())
             : inst->deadline,
      /*fail_fast=*/on_sim, /*concurrent=*/shards() > 1, tail);

  inst->sender = mux_.open_instance(id);

  // All N nodes are constructed (measure_run and the sequential view-RNG
  // consumption both require it); only participants attach and start.
  inst->nodes = runner::make_nodes(
      xc, world, inst_root, *inst->arena,
      inst->checker != nullptr ? inst->checker.get() : tail,
      [this, sender = inst->sender.get()](MemberId m,
                                          protocols::NodeEnv& env) {
        env.scheduler = &scheduler_of(m);
        env.network = sender;
      });
  for (const auto& node : inst->nodes) {
    if (world.group.is_alive(node->self())) {
      inst->sender->attach(node->self(), *node);
    }
  }
  for (const auto& node : inst->nodes) {
    const MemberId m = node->self();
    if (!world.group.is_alive(m)) continue;
    // Starting schedules timers, which is only thread-legal on the member's
    // own shard. The liveness re-check covers a crash landing between this
    // post and its execution.
    post(m, [node = node.get(), g = &world.group, m, at = now]() {
      if (g->is_alive(m)) node->start(at);
    });
  }

  live_.emplace(id, std::move(inst));
  ++counts_.launched;
  ++counts_.in_flight;
  counts_.note_occupancy(deferred_.size());
}

void ServiceEngine::complete(Instance& inst, SimTime now) {
  inst.completed_at = now;
  completion_times_.push_back(now - inst.launched_at);
  close(inst, State::kDraining);
  ++counts_.completed;
  counts_.epoch_latency_us.observe(
      static_cast<std::uint64_t>((now - inst.launched_at).ticks()));
}

void ServiceEngine::close(Instance& inst, State state) {
  inst.network = inst.sender->stats();
  mux_.close_instance(inst.id);
  inst.state = state;
  --counts_.in_flight;
}

void ServiceEngine::fail(Instance& inst) {
  close(inst, State::kFailed);
  ++counts_.failed;
  if (inst.checker) {
    // Materialize never-finished violations for the report (collect mode:
    // the UDP substrate never fail-fasts).
    inst.checker->expect_all_finished(inst.world.group.alive_members());
  }
}

sim::Scheduler& ServiceEngine::scheduler_of(MemberId m) const {
  if (substrate_.simulator != nullptr) return *substrate_.simulator;
  return substrate_.mesh->reactor_of(m);
}

void ServiceEngine::post(MemberId m, sim::Action action) const {
  if (substrate_.simulator != nullptr) {
    action();
  } else {
    substrate_.mesh->post(m, std::move(action));
  }
}

std::size_t ServiceEngine::shards() const {
  return substrate_.mesh != nullptr ? substrate_.mesh->shard_count() : 1;
}

void ServiceEngine::probe_drain(Instance& inst) {
  inst.count_outstanding = true;
  // The nodes' TimerTarget identities; shared so the predicate survives the
  // asynchronous shard hop on the UDP substrate.
  auto targets = std::make_shared<std::vector<const sim::TimerTarget*>>();
  targets->reserve(inst.nodes.size());
  for (const auto& node : inst.nodes) {
    targets->push_back(static_cast<const sim::TimerTarget*>(node.get()));
  }
  std::sort(targets->begin(), targets->end());
  const auto pred = [targets](const sim::TimerTarget* t) {
    return std::binary_search(targets->begin(), targets->end(), t);
  };
  if (substrate_.simulator != nullptr) {
    on_drain_count(inst.id, substrate_.simulator->count_timers_where(pred));
  } else {
    substrate_.mesh->count_timers(pred, [this, id = inst.id](std::size_t n) {
      on_drain_count(id, n);
    });
  }
}

void ServiceEngine::on_drain_count(std::uint32_t id, std::size_t pending) {
  const auto it = live_.find(id);
  if (it == live_.end()) return;
  Instance& inst = *it->second;
  inst.count_outstanding = false;
  if (pending > 0) return;  // linger timers remain; the scan probes again
  finalize(inst, /*teardown=*/true);
  live_.erase(it);
  maybe_done();
}

InstanceResult ServiceEngine::row_of(const Instance& inst) const {
  InstanceResult row;
  row.id = inst.id;
  row.launched_at = inst.launched_at;
  row.completed_at = inst.completed_at;
  row.participants = inst.participants;
  row.network = inst.network;
  if (inst.checker) {
    row.invariant_violations = inst.checker->violations().size();
    if (!inst.checker->violations().empty()) {
      row.first_violation = inst.checker->violations().front().what;
    }
  }
  return row;
}

void ServiceEngine::finalize(Instance& inst, bool teardown) {
  if (inst.checker) {
    inst.checker->expect_all_finished(inst.world.group.alive_members());
  }
  InstanceResult row = row_of(inst);
  row.completed = true;
  row.measurement = protocols::measure_run(
      inst.world.group, inst.nodes, inst.world.votes,
      config_.experiment.aggregate, inst.network, inst.world.audit.get());
  if (inst.lineage) row.lineage_json = inst.lineage->tracker.to_json();
  results_.push_back(std::move(row));
  if (teardown) {
    inst.nodes.clear();
    inst.sender.reset();
    inst.checker.reset();
    inst.lineage.reset();
    arena_pool_.push_back(std::move(inst.arena));
  }
}

void ServiceEngine::scan() {
  const SimTime now = control_->now();
  try_launches();
  std::vector<std::uint32_t> ids;
  ids.reserve(live_.size());
  for (const auto& [id, inst] : live_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (const std::uint32_t id : ids) {
    const auto it = live_.find(id);
    if (it == live_.end()) continue;
    Instance& inst = *it->second;
    if (inst.state == State::kRunning) {
      if (runner::settled(inst.nodes, inst.world.group)) {
        complete(inst, now);
      } else if (now >= inst.deadline) {
        fail(inst);
        parked_.push_back(std::move(it->second));
        live_.erase(it);
        continue;
      }
    }
    if (inst.state == State::kDraining && !inst.count_outstanding) {
      // In the simulator the count resolves inline (possibly finalizing and
      // erasing the instance right here); on UDP it hops the shards and
      // lands back on the control thread later.
      probe_drain(inst);
    }
  }
  try_launches();
  maybe_done();
  if (!done_.load(std::memory_order_relaxed)) {
    control_->schedule_after(scan_interval_, [this]() { scan(); });
  }
}

void ServiceEngine::maybe_done() {
  if (counts_.launched == config_.instances && live_.empty() &&
      deferred_.empty()) {
    done_.store(true, std::memory_order_release);
  }
}

ServiceResult ServiceEngine::collect() {
  expects(!collected_, "collect() is single-shot");
  collected_ = true;

  ServiceResult result;
  result.elapsed = control_->now();

  // Stragglers the event loop abandoned (global deadline / event budget):
  // draining ones did answer — measure them in place, without destroying
  // nodes that may still own scheduled timers; running ones failed.
  for (auto& [id, inst] : live_) {
    if (inst->state == State::kDraining) {
      finalize(*inst, /*teardown=*/false);
    } else if (inst->state == State::kRunning) {
      close(*inst, State::kFailed);
      ++counts_.failed;
      parked_.push_back(std::move(inst));
    }
  }
  live_.clear();

  for (const auto& inst : parked_) results_.push_back(row_of(*inst));

  std::sort(results_.begin(), results_.end(),
            [](const InstanceResult& a, const InstanceResult& b) {
              return a.id < b.id;
            });
  result.instances = std::move(results_);

  ServiceMetrics& m = result.metrics;
  m.launched = counts_.launched;
  m.completed = counts_.completed;
  m.failed = counts_.failed;
  m.deferred = counts_.deferred;
  std::sort(completion_times_.begin(), completion_times_.end());
  m.p50_completion = percentile(completion_times_, 0.50);
  m.p90_completion = percentile(completion_times_, 0.90);
  m.p99_completion = percentile(completion_times_, 0.99);
  if (result.elapsed > SimTime::zero()) {
    m.instances_per_sec = static_cast<double>(counts_.completed) /
                          (static_cast<double>(result.elapsed.ticks()) / 1e6);
  }
  m.demux = mux_.stats();

  result.completed =
      counts_.completed == config_.instances && counts_.failed == 0;
  return result;
}

bool ServiceResult::clean() const {
  return completed &&
         std::all_of(instances.begin(), instances.end(),
                     [](const InstanceResult& i) {
                       return i.completed && protocols::honest(i.measurement) &&
                              i.invariant_violations == 0;
                     });
}

std::string lineage_multi_json(const std::vector<InstanceResult>& instances) {
  // The per-instance documents are already serialized JSON objects; the
  // container only nests them, so plain concatenation is exact.
  std::string out = "{\"schema\":\"gridbox-lineage-multi/1\",\"instances\":[";
  bool first = true;
  for (const InstanceResult& inst : instances) {
    if (inst.lineage_json.empty()) continue;
    if (!first) out += ",";
    first = false;
    out += "{\"id\":" + std::to_string(inst.id) + ",\"doc\":";
    out += inst.lineage_json;
    out += "}";
  }
  out += "]}";
  return out;
}

ServiceResult run_service_experiment(const ServiceConfig& config) {
  const runner::ExperimentConfig& xc = config.experiment;
  sim::Simulator simulator;
  simulator.set_event_limit(
      std::max<std::uint64_t>(500'000'000, static_cast<std::uint64_t>(1000) *
                                               xc.group_size *
                                               config.instances));
  membership::Group shared_group(xc.group_size);
  const std::unique_ptr<net::SimNetwork> network = runner::make_sim_network(
      xc, simulator, shared_group, net::ChaosSpec::parse(xc.chaos_spec));

  InstanceMux::Options mopt;
  mopt.group_size = xc.group_size;
  mopt.transport_of = [&network](MemberId) -> net::Transport* {
    return network.get();
  };
  mopt.max_instances = config.instances;
  InstanceMux mux(std::move(mopt));
  mux.attach_all();

  ServiceEngine::Substrate substrate;
  substrate.simulator = &simulator;
  ServiceEngine engine(config, mux, shared_group, substrate);

  // Live telemetry: the simulator is one shard, so one lane, plus the
  // engine's stream counts. The sampler ticks on the virtual clock, making
  // the whole JSONL series a pure function of (config, seed) — golden
  // fixtures pin the bytes.
  obs::TelemetryLane tel_lane;
  std::unique_ptr<obs::TelemetryHub> tel_hub;
  std::unique_ptr<obs::TelemetrySampler> tel_sampler;
  if (xc.telemetry.enabled) {
    simulator.set_telemetry(&tel_lane);
    tel_hub = std::make_unique<obs::TelemetryHub>(
        std::vector<const obs::TelemetryLane*>{&tel_lane});
    tel_hub->watch_service(engine.counts());
    tel_sampler = std::make_unique<obs::TelemetrySampler>(*tel_hub,
                                                          xc.telemetry);
  }

  engine.begin();
  if (tel_sampler != nullptr) {
    // The periodic tick rides the same event queue as the run; it stops
    // rescheduling once the stream resolves so the loop below still drains.
    simulator.schedule_periodic(xc.telemetry.interval, xc.telemetry.interval,
                                [&engine, &tel_sampler, &simulator]() {
                                  tel_sampler->sample(simulator.now());
                                  return !engine.finished();
                                });
  }
  const SimTime deadline = engine.global_deadline();
  while (!engine.finished() && !simulator.idle() &&
         simulator.now() <= deadline) {
    (void)simulator.step();
  }
  ServiceResult result = engine.collect();
  result.sim_events = simulator.events_executed();
  // Final sample: the resolved stream's end state always makes the series.
  if (tel_sampler != nullptr) tel_sampler->sample(simulator.now());
  return result;
}

}  // namespace gridbox::service

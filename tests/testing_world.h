// Shared test scaffolding: a hand-wired simulated world, smaller and more
// pokeable than the runner's run_experiment (which the integration tests use
// instead).
//
// Adversity goes through the chaos spec (WorldOptions::chaos / apply_chaos)
// rather than hand-wired fault models, so tests script loss, partitions,
// and crashes with the same replayable text artifact the runner uses. The
// run invariant checker is on by default for any protocol with trace hooks.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/agg/audit.h"
#include "src/agg/vote.h"
#include "src/common/ensure.h"
#include "src/hashing/fair_hash.h"
#include "src/hierarchy/hierarchy.h"
#include "src/membership/group.h"
#include "src/net/chaos.h"
#include "src/net/network.h"
#include "src/protocols/invariant_checker.h"
#include "src/protocols/node.h"
#include "src/sim/simulator.h"

namespace gridbox::testing {

struct WorldOptions {
  std::size_t group_size = 16;
  std::uint32_t k = 4;
  double loss = 0.0;
  std::uint64_t seed = 1;
  std::uint64_t hash_salt = 1;
  bool audit = true;
  SimTime latency_lo = SimTime::micros(100);
  SimTime latency_hi = SimTime::micros(900);

  /// Chaos spec text (docs/chaos.md); layered over `loss` (a `loss`
  /// directive in the spec takes precedence). Crashes in the spec are
  /// scheduled against this world's group.
  std::string chaos;

  /// Install the run invariant checker on nodes whose config has trace
  /// hooks (hier-gossip). Violations throw InvariantError mid-run.
  bool invariants = true;

  /// Override the default member-i-votes-i table (same size as the group).
  std::optional<std::vector<double>> vote_values;
};

/// Owns every substrate object a protocol needs, with lifetimes arranged so
/// nodes can be created, attached, and run inside one test body.
class World {
 public:
  explicit World(const WorldOptions& options)
      : options_(options),
        root_(options.seed),
        group_(options.group_size),
        votes_(make_votes(options)),
        hash_(options.hash_salt),
        hierarchy_(options.group_size, options.k, hash_),
        network_(simulator_, make_faults(options.loss),
                 std::make_unique<net::UniformLatency>(options.latency_lo,
                                                       options.latency_hi),
                 root_.derive(0xBEEF)) {
    if (options.audit) {
      audit_ = std::make_unique<agg::AuditRegistry>(options.group_size);
    }
    network_.set_liveness([this](MemberId m) { return group_.is_alive(m); });
    if (!options.chaos.empty()) apply_chaos(options.chaos);
  }

  /// Applies a chaos spec to this world: network-affecting directives
  /// install a ChaosSchedule (at most one per world, before any send);
  /// crash directives schedule against the group. Callable after
  /// construction so tests can script crashes of computed member ids
  /// (e.g. an elected leader).
  void apply_chaos(const std::string& text) {
    const net::ChaosSpec spec = net::ChaosSpec::parse(text);
    if (spec.affects_network()) {
      expects(network_.chaos() == nullptr,
              "world already has a network chaos schedule");
      network_.install_chaos(std::make_unique<net::ChaosSchedule>(
          spec, make_faults(options_.loss), options_.group_size,
          root_.derive(0xC4A05)));
    }
    net::schedule_chaos_crashes(spec, simulator_,
                                [this](MemberId m) { group_.crash(m); });
  }

  [[nodiscard]] protocols::NodeEnv env(
      agg::AggregateKind kind = agg::AggregateKind::kAverage) {
    protocols::NodeEnv e;
    e.scheduler = &simulator_;
    e.network = &network_;
    e.hierarchy = &hierarchy_;
    e.audit = audit_.get();
    e.is_alive = [this](MemberId m) { return group_.is_alive(m); };
    e.kind = kind;
    return e;
  }

  /// Builds one node per member with NodeType(id, vote, view, env, rng, cfg),
  /// attaches them, and returns the vector (world keeps no ownership). When
  /// the config carries gossip trace hooks and invariants are enabled, the
  /// run invariant checker is chained in front of any configured trace.
  template <typename NodeType, typename Config>
  std::vector<std::unique_ptr<NodeType>> make_nodes(Config config) {
    if constexpr (requires { config.trace; config.round_duration; }) {
      if (options_.invariants) {
        protocols::InvariantChecker::Config icfg;
        icfg.group_size = options_.group_size;
        icfg.fanout = options_.k;
        icfg.num_phases = hierarchy_.num_phases();
        icfg.scheduler = &simulator_;
        icfg.audit = audit_.get();
        const std::uint64_t total_rounds =
            hierarchy_.num_phases() *
                config.rounds_per_phase(options_.group_size) +
            1;
        icfg.deadline =
            config.start_skew_max +
            SimTime::micros(static_cast<SimTime::underlying>(total_rounds) *
                            config.round_duration.ticks());
        icfg.next = config.trace;
        checker_ = std::make_unique<protocols::InvariantChecker>(icfg);
        config.trace = checker_.get();
      }
    }
    std::vector<std::unique_ptr<NodeType>> nodes;
    const membership::View view = group_.full_view();
    for (const MemberId m : group_.members()) {
      auto node = std::make_unique<NodeType>(m, votes_.of(m), view, env(),
                                             root_.derive(0x1000 + m.value()),
                                             config);
      network_.attach(m, *node);
      nodes.push_back(std::move(node));
    }
    return nodes;
  }

  template <typename NodeType>
  void start_all(std::vector<std::unique_ptr<NodeType>>& nodes,
                 SimTime at = SimTime::zero()) {
    for (auto& node : nodes) node->start(at);
  }

  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] net::SimNetwork& network() { return network_; }
  [[nodiscard]] membership::Group& group() { return group_; }
  [[nodiscard]] const agg::VoteTable& votes() const { return votes_; }
  [[nodiscard]] const hierarchy::GridBoxHierarchy& hierarchy() const {
    return hierarchy_;
  }
  [[nodiscard]] agg::AuditRegistry* audit() { return audit_.get(); }
  [[nodiscard]] Rng& rng() { return root_; }
  /// The installed invariant checker (null until make_nodes on a traced
  /// config, or when invariants are off).
  [[nodiscard]] protocols::InvariantChecker* checker() {
    return checker_.get();
  }

 private:
  static agg::VoteTable make_votes(const WorldOptions& options) {
    if (options.vote_values.has_value()) {
      expects(options.vote_values->size() == options.group_size,
              "vote_values must match group_size");
      return agg::VoteTable{*options.vote_values};
    }
    // Simple distinct votes: member i votes i. Makes expected aggregates
    // trivially computable in tests.
    std::vector<double> values(options.group_size);
    for (std::size_t i = 0; i < options.group_size; ++i) {
      values[i] = static_cast<double>(i);
    }
    return agg::VoteTable{std::move(values)};
  }

  static net::FaultModel make_faults(double loss) {
    return net::FaultModel::iid(std::max(0.0, loss));
  }

  WorldOptions options_;
  Rng root_;
  sim::Simulator simulator_;
  membership::Group group_;
  agg::VoteTable votes_;
  hashing::FairHash hash_;
  hierarchy::GridBoxHierarchy hierarchy_;
  net::SimNetwork network_;
  std::unique_ptr<agg::AuditRegistry> audit_;
  std::unique_ptr<protocols::InvariantChecker> checker_;
};

}  // namespace gridbox::testing

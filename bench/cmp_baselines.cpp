// Sections 4-6: the paper's qualitative comparison of approaches, measured.
//
//   - fully distributed (§4): O(N^2) messages, O(N) time, completeness
//     tracks the raw loss rate;
//   - centralized (§5): O(N) messages but leader implosion and catastrophic
//     leader crashes;
//   - leader election on the hierarchy (§6.2): near-optimal cost, but a
//     height-i leader crash silently loses ~K^i votes;
//   - K'-committee (§6.2): tolerates K'-1 crashes per subtree at higher cost;
//   - hierarchical gossiping (§6.3): O(N log^2 N) messages, O(log^2 N) time,
//     graceful degradation under loss and crashes.
//
// Three regimes: clean network, lossy network, lossy + crashy.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "bench/fig_common.h"
#include "src/runner/experiment.h"

namespace {

using namespace gridbox;

struct Regime {
  const char* name;
  double loss;
  double pf;
};

struct Row {
  double mean_completeness = 0.0;
  double worst_run = 1.0;
  double messages = 0.0;
  double rounds = 0.0;
};

Row measure(runner::ProtocolKind kind, const Regime& regime, std::size_t n,
            std::size_t runs, std::size_t jobs) {
  const std::vector<runner::RunResult> results =
      bench::run_indexed<runner::RunResult>(runs, jobs, [&](std::size_t r) {
        runner::ExperimentConfig config = bench::paper_defaults();
        config.protocol = kind;
        config.group_size = n;
        config.ucast_loss = regime.loss;
        config.crash_probability = regime.pf;
        config.committee.committee_size =
            kind == runner::ProtocolKind::kCommittee ? 3 : 1;
        config.seed = 7000 + static_cast<std::uint64_t>(r);
        return runner::run_experiment(config);
      });
  Row row;
  for (const runner::RunResult& result : results) {
    row.mean_completeness += result.measurement.mean_completeness;
    row.worst_run =
        std::min(row.worst_run, result.measurement.mean_completeness);
    row.messages += static_cast<double>(result.measurement.network_messages);
    row.rounds += static_cast<double>(result.measurement.max_rounds);
  }
  row.mean_completeness /= static_cast<double>(runs);
  row.messages /= static_cast<double>(runs);
  row.rounds /= static_cast<double>(runs);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gridbox;
  bench::print_header("Sections 4-6", "baseline comparison",
                      "N=256, K=4, M=2, C=1.0; 12 runs per cell; "
                      "'worst' is the worst run's mean completeness");

  const std::size_t jobs = bench::parse_args(argc, argv);

  const std::vector<Regime> regimes = {
      {"clean", 0.0, 0.0},
      {"lossy(0.25)", 0.25, 0.0},
      {"lossy+crashy(0.25,0.005)", 0.25, 0.005},
  };
  const std::vector<runner::ProtocolKind> kinds = {
      runner::ProtocolKind::kFullyDistributed,
      runner::ProtocolKind::kCentralized,
      runner::ProtocolKind::kLeaderElection,
      runner::ProtocolKind::kCommittee,
      runner::ProtocolKind::kHierGossip,
  };

  runner::Table table({"regime", "protocol", "completeness", "worst run",
                       "msgs/run", "rounds"});
  double gossip_worst = 1.0;
  double leader_worst = 1.0;
  for (const Regime& regime : regimes) {
    for (const runner::ProtocolKind kind : kinds) {
      const Row row = measure(kind, regime, 256, 12, jobs);
      table.add_row({regime.name, runner::to_string(kind),
                     runner::Table::num(row.mean_completeness),
                     runner::Table::num(row.worst_run),
                     runner::Table::num(row.messages, 0),
                     runner::Table::num(row.rounds, 1)});
      if (regime.pf > 0.0) {
        if (kind == runner::ProtocolKind::kHierGossip) {
          gossip_worst = row.worst_run;
        }
        if (kind == runner::ProtocolKind::kLeaderElection) {
          leader_worst = row.worst_run;
        }
      }
    }
  }
  bench::append_repro(table, 7000, jobs, "");
  bench::emit(table, "cmp_baselines");

  std::printf(
      "who wins: under crashes, hier-gossip's worst run (%.3f) vs single "
      "leader's worst run (%.3f) — %s\n"
      "cost: all-to-all pays ~N^2 messages; gossip pays ~N*log^2(N); "
      "centralized/leader pay ~N but fail badly.\n",
      gossip_worst, leader_worst,
      gossip_worst > leader_worst ? "gossip degrades gracefully"
                                  : "UNEXPECTED");
  return 0;
}

// Ablation 2 (DESIGN.md §5.3): fair vs topologically aware hash.
//
// §6.1: a topologically aware H "would result in a reduction of the load
// ... on links in a sparsely connected network", because the O(N) messages
// of early phases stay between nearby members. We measure the mean Euclidean
// link distance per message (positions in the unit square) and confirm
// completeness is unaffected.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/fig_common.h"
#include "src/runner/experiment.h"

int main(int argc, char** argv) {
  using namespace gridbox;
  bench::print_header("Ablation: topology-aware hash",
                      "mean link distance per message, fair vs topo hash",
                      "N=512, K=4, M=2, C=2, lossless; members scattered "
                      "uniformly in the unit square");

  const std::size_t jobs = bench::parse_args(argc, argv);

  runner::Table table(
      {"hash", "mean link distance", "completeness", "msgs/run"});
  double fair_distance = 0.0;
  double topo_distance = 0.0;
  for (const bool topo : {false, true}) {
    constexpr std::size_t kRuns = 8;
    const std::vector<runner::RunResult> results =
        bench::run_indexed<runner::RunResult>(kRuns, jobs, [&](std::size_t r) {
          runner::ExperimentConfig config = bench::paper_defaults();
          config.group_size = 512;
          config.ucast_loss = 0.0;
          config.crash_probability = 0.0;
          config.gossip.round_multiplier_c = 2.0;
          config.assign_positions = true;
          config.hash = topo ? runner::HashKind::kTopoAware
                             : runner::HashKind::kFair;
          config.seed = 9000 + static_cast<std::uint64_t>(r);
          return runner::run_experiment(config);
        });
    double distance = 0.0;
    double completeness = 0.0;
    double messages = 0.0;
    for (const runner::RunResult& result : results) {
      distance += result.mean_link_distance;
      completeness += result.measurement.mean_completeness;
      messages += static_cast<double>(result.measurement.network_messages);
    }
    distance /= kRuns;
    completeness /= kRuns;
    messages /= kRuns;
    (topo ? topo_distance : fair_distance) = distance;
    table.add_row({topo ? "topo-aware (Morton, calibrated)" : "fair (random)",
                   runner::Table::num(distance, 4),
                   runner::Table::num(completeness),
                   runner::Table::num(messages, 0)});
  }
  bench::append_repro(table, 9000, jobs, "");
  bench::emit(table, "abl_topology");

  std::printf(
      "takeaway: the topo-aware hash cuts mean per-message link distance "
      "%.1fx (%.4f -> %.4f) at equal completeness — early phases stay on "
      "short links, as §6.1 argues.\n",
      fair_distance / topo_distance, fair_distance, topo_distance);
  return 0;
}

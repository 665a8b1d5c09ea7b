// Figure 10 (Fault-tolerance 3): incompleteness vs per-round member failure
// rate pf. Paper: "incompleteness falls very quickly (faster than
// exponential) with falling member failure rate."
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/fig_common.h"
#include "src/runner/sweep.h"

int main(int argc, char** argv) {
  using namespace gridbox;
  bench::print_header("Figure 10", "incompleteness vs member failure rate pf",
                      "N=200, K=4, M=2, C=1.0, ucastl=0.25; crash without "
                      "recovery, pf applied per member per gossip round");

  runner::ExperimentConfig base = bench::paper_defaults();
  base.jobs = bench::parse_args(argc, argv);
  const runner::SweepResult sweep = runner::run_sweep(
      base, "pf", {0.002, 0.004, 0.006, 0.008},
      [](runner::ExperimentConfig& c, double x) { c.crash_probability = x; },
      48);
  bench::check_audits(sweep);
  bench::print_sweep_meta(sweep);
  bench::emit(bench::sweep_table(sweep), "fig10_member_failure");

  // Individual runs are dominated by which members happen to die, so use
  // the log-scale (geometric-mean) trend over the 48 runs per point, with a
  // small tolerance for residual seed noise.
  bool monotone = true;
  for (std::size_t i = 1; i < sweep.points.size(); ++i) {
    if (sweep.points[i].incompleteness_geomean <
        0.9 * sweep.points[i - 1].incompleteness_geomean) {
      monotone = false;
    }
  }
  std::printf(
      "shape check: incompleteness rises with pf (geomean trend): %s "
      "(read bottom-up for the paper's falling-pf direction)\n",
      monotone ? "yes" : "NO");
  return 0;
}

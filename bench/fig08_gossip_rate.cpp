// Figure 8 (Effect of gossip rate): incompleteness vs gossip rounds per
// phase, x = 1..5 exactly as in the paper. Paper: "incompleteness falls
// exponentially with increasing gossip rate / gossip round length."
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/fig_common.h"
#include "src/runner/sweep.h"

int main(int argc, char** argv) {
  using namespace gridbox;
  bench::print_header("Figure 8", "incompleteness vs gossip rounds per phase",
                      "N=200, K=4, M=2, ucastl=0.25, pf=0.001; x = rounds "
                      "per phase (paper's axis)");

  runner::ExperimentConfig base = bench::paper_defaults();
  base.jobs = bench::parse_args(argc, argv);
  const runner::SweepResult sweep = runner::run_sweep(
      base, "rounds/phase", {1, 2, 3, 4, 5},
      [](runner::ExperimentConfig& c, double x) {
        c.gossip.rounds_per_phase_override = static_cast<std::uint64_t>(x);
      },
      24);
  bench::check_audits(sweep);
  bench::print_sweep_meta(sweep);
  bench::emit(bench::sweep_table(sweep), "fig08_gossip_rate");

  bool falling = true;
  for (std::size_t i = 1; i < sweep.points.size(); ++i) {
    if (sweep.points[i].incompleteness.mean >
        sweep.points[i - 1].incompleteness.mean) {
      falling = false;
    }
  }
  const double span =
      sweep.points.front().incompleteness.mean /
      std::max(sweep.points.back().incompleteness.mean, 1e-12);
  std::printf(
      "shape check: incompleteness falls monotonically with rounds/phase: "
      "%s; 1 -> 5 rounds shrinks %.0fx (exponential regime)\n",
      falling ? "yes" : "NO", span);
  return 0;
}

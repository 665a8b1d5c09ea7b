// Figure 7 (Fault-tolerance 1): incompleteness vs unicast message loss
// probability ucastl. Paper: "incompleteness falls exponentially fast with
// decreasing unicast message loss probability."
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/fig_common.h"
#include "src/runner/sweep.h"

int main(int argc, char** argv) {
  using namespace gridbox;
  bench::print_header("Figure 7", "incompleteness vs unicast loss ucastl",
                      "N=200, K=4, M=2, C=1.0, pf=0.001");

  runner::ExperimentConfig base = bench::paper_defaults();
  base.jobs = bench::parse_args(argc, argv);
  const runner::SweepResult sweep = runner::run_sweep(
      base, "ucastl", {0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70},
      [](runner::ExperimentConfig& c, double x) { c.ucast_loss = x; }, 16);
  bench::check_audits(sweep);
  bench::print_sweep_meta(sweep);
  bench::emit(bench::sweep_table(sweep), "fig07_message_loss");

  // Exponential fall: log-incompleteness roughly linear in ucastl, so the
  // ratio between successive points should be roughly constant and > 1.
  bool monotone = true;
  for (std::size_t i = 1; i < sweep.points.size(); ++i) {
    if (sweep.points[i].incompleteness_geomean <
        sweep.points[i - 1].incompleteness_geomean) {
      monotone = false;
    }
  }
  const double span = sweep.points.back().incompleteness_geomean /
                      sweep.points.front().incompleteness_geomean;
  std::printf(
      "shape check: incompleteness rises monotonically with loss: %s; "
      "0.40 -> 0.70 grows %.0fx (exponential regime)\n",
      monotone ? "yes" : "NO", span);
  return 0;
}

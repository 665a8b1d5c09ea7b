// Figure 6 (Scalability 1): measured incompleteness vs group size N at the
// §7 defaults. Paper: "the protocol's completeness scales well at high
// values of group size N" — incompleteness does not grow as N rises into
// the thousands, even at low gossip rates where Theorem 1 does not apply.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/fig_common.h"
#include "src/runner/sweep.h"

int main(int argc, char** argv) {
  using namespace gridbox;
  bench::print_header(
      "Figure 6", "incompleteness vs group size N",
      "defaults: ucastl=0.25, pf=0.001, K=4, M=2, C=1.0 (b ~ 0.75)");

  runner::ExperimentConfig base = bench::paper_defaults();
  base.jobs = bench::parse_args(argc, argv);
  const runner::SweepResult sweep = runner::run_sweep(
      base, "N", {200, 400, 800, 1600, 3200},
      [](runner::ExperimentConfig& c, double x) {
        c.group_size = static_cast<std::size_t>(x);
      },
      8);
  bench::check_audits(sweep);
  bench::print_sweep_meta(sweep);
  bench::emit(bench::sweep_table(sweep), "fig06_scalability_vs_n");

  const double first = sweep.points.front().incompleteness.mean;
  const double last = sweep.points.back().incompleteness.mean;
  std::printf(
      "shape check: incompleteness at N=3200 (%.4g) <= at N=200 (%.4g): %s\n"
      "paper: completeness guarantees improve slightly as N grows into the "
      "1000s.\n",
      last, first, last <= first ? "yes" : "NO");
  return 0;
}

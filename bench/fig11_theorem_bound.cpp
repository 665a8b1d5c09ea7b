// Figure 11 (Scalability 2): measured incompleteness vs N with C=1.4 and
// ucastl = pf = 0 (b evaluates to ~1.0), compared against the analytic 1/N
// limit of Theorem 1. Paper: "although this does not satisfy the conditions
// for Theorem 1, the incompleteness is bounded by 1/N" — the bound is
// pessimistic.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/fig_common.h"
#include "src/runner/sweep.h"

int main(int argc, char** argv) {
  using namespace gridbox;
  bench::print_header("Figure 11", "incompleteness vs N against the 1/N bound",
                      "K=4, M=2, C=1.4, ucastl=pf=0 (b ~ 1.0)");

  runner::ExperimentConfig base = bench::paper_defaults();
  base.jobs = bench::parse_args(argc, argv);
  base.ucast_loss = 0.0;
  base.crash_probability = 0.0;
  base.gossip.round_multiplier_c = 1.4;

  const runner::SweepResult sweep = runner::run_sweep(
      base, "N", {300, 400, 500, 600},
      [](runner::ExperimentConfig& c, double x) {
        c.group_size = static_cast<std::size_t>(x);
      },
      24);

  runner::Table table({"N", "incompleteness", "1/N", "bounded by 1/N?",
                       "eff_b"});
  bool all_bounded = true;
  for (const auto& p : sweep.points) {
    const double inv_n = 1.0 / p.x;
    const bool ok = p.incompleteness.mean <= inv_n;
    all_bounded = all_bounded && ok;
    table.add_row({runner::Table::num(p.x, 0),
                   runner::Table::num(p.incompleteness.mean),
                   runner::Table::num(inv_n), ok ? "yes" : "NO",
                   runner::Table::num(p.mean_effective_b, 2)});
  }
  bench::check_audits(sweep);
  bench::print_sweep_meta(sweep);
  bench::append_repro(table, sweep.base_seed, sweep.jobs_used,
                      sweep.chaos_spec);
  bench::emit(table, "fig11_theorem_bound");

  std::printf("shape check: incompleteness <= 1/N at every N: %s "
              "(the paper's Figure 11 result)\n",
              all_bounded ? "yes" : "NO");
  return 0;
}

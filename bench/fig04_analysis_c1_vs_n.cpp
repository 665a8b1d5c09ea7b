// Figure 4: -log(1 − C1(N, K=2, b=4)) vs log(N) — the first-phase analytic
// incompleteness falls at least as fast as 1/N (Postulate 1).
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/analysis/completeness.h"

int main(int argc, char** argv) {
  using namespace gridbox;
  (void)bench::parse_args(argc, argv);
  bench::print_header("Figure 4", "analytic first-phase incompleteness vs N",
                      "K=2, b=4; overlay: analytic 1/N (paper's reference)");

  runner::Table table({"N", "1-C1(N,K=2,b=4)", "1/N", "ratio (1/N)/(1-C1)",
                       "-log10(1-C1)"});
  double prev = 0.0;
  bool monotone = true;
  for (const std::size_t n : {1000u, 1414u, 2000u, 2828u, 4000u, 5657u, 8000u}) {
    const double q = analysis::first_phase_incompleteness(n, 2, 4.0);
    const double inv_n = 1.0 / static_cast<double>(n);
    table.add_row({runner::Table::num(static_cast<double>(n), 0),
                   runner::Table::num(q), runner::Table::num(inv_n),
                   runner::Table::num(inv_n / q, 1),
                   runner::Table::num(-std::log10(q), 2)});
    if (prev != 0.0 && q > prev) monotone = false;
    prev = q;
  }
  bench::append_repro_analysis(table);
  bench::emit(table, "fig04_analysis_c1_vs_n");

  std::printf("shape check: incompleteness monotonically falls with N: %s\n",
              monotone ? "yes" : "NO");
  std::printf(
      "paper's takeaway (Postulate 1): C1 >= 1 - 1/N for K>=2, b>=4 — "
      "every ratio above should be >= 1.\n");
  return 0;
}

// Figure 5: 1 − C1(N=2000, K, b=4) vs K — completeness is monotonically
// increasing with K (bigger grid boxes spread votes through more gossipers).
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/analysis/completeness.h"

int main(int argc, char** argv) {
  using namespace gridbox;
  (void)bench::parse_args(argc, argv);
  bench::print_header("Figure 5", "analytic first-phase incompleteness vs K",
                      "N=2000, b=4; log-log axes in the paper");

  runner::Table table({"K", "1-C1(2000,K,4)", "-log10(1-C1)"});
  double prev = 1.0;
  bool monotone = true;
  for (const std::uint32_t k : {4u, 6u, 8u, 11u, 16u, 23u, 32u}) {
    const double q = analysis::first_phase_incompleteness(2000, k, 4.0);
    table.add_row({runner::Table::num(static_cast<double>(k), 0),
                   runner::Table::num(q),
                   runner::Table::num(-std::log10(q), 2)});
    if (q > prev) monotone = false;
    prev = q;
  }
  bench::append_repro_analysis(table);
  bench::emit(table, "fig05_analysis_c1_vs_k");

  std::printf(
      "shape check: incompleteness monotonically falls with K: %s "
      "(paper: \"completeness is monotonically increasing with K\")\n",
      monotone ? "yes" : "NO");
  return 0;
}

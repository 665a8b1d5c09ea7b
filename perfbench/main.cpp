// End-to-end benchmark program for gridbox.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload for about S seconds on inputs drawn from the seed,
// checks every aggregate, and prints a metric table followed by one JSON
// line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones.
// Exits 1 when any check failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench/bench.h"

namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload udp_hier_n1000|udp_service_n100"
    " --seed N --seconds S --trace 0|1\n";

bool parse(int argc, char** argv, perfbench::Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
        if (value != "0" && value != "1") return false;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() && options.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!parse(argc, argv, options)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  perfbench::Report report;
  if (options.workload == "udp_hier_n1000") {
    perfbench::run_udp_hier(options, report);
  } else if (options.workload == "udp_service_n100") {
    perfbench::run_udp_service(options, report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n%s", options.workload.c_str(),
                 kUsage);
    return 2;
  }
  if (options.trace) {
    perfbench::fill_absent_layers(report, options.workload);
  } else {
    const double attempted = static_cast<double>(report.attempted);
    report.add("success_frac",
               attempted > 0
                   ? (attempted - static_cast<double>(report.failed)) / attempted
                   : 0.0,
               "fraction");
    report.add("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
  }
  perfbench::print_report(report);
  return report.correct ? 0 : 1;
}

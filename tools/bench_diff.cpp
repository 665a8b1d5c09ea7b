// bench_diff: compare two builds from BENCH_*.json files that gridbox_bench
// wrote on one host, several reports per build.
//
// Each case is scored by its minimum wall over its side's reports (noise
// only ever adds time), so interleaved invocations of the two builds make a
// same-runner A/B. Exits 0 when every case is on both sides and none
// regressed past the threshold, 1 on a regression, a case on one side only,
// or counts that differ within one side (nondeterminism), and 2 on
// unreadable or mismatched inputs. Counts that differ between the two sides
// print as "work changed" and do not gate: tests/test_regression.cpp pins
// the work.
//
// usage: bench_diff OLD.json... -- NEW.json... [--threshold FRAC]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "src/obs/bench_io.h"

constexpr const char* kUsage =
    "usage: bench_diff OLD.json... -- NEW.json... [--threshold FRAC]\n";

int main(int argc, char** argv) {
  double threshold = 0.2;
  std::vector<std::string> old_paths;
  std::vector<std::string> new_paths;
  bool after_separator = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threshold") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --threshold: missing value\n");
        return 2;
      }
      threshold = std::atof(argv[++i]);
      if (threshold < 0.0) {
        std::fprintf(stderr, "error: --threshold: must be non-negative\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (std::strcmp(argv[i], "--") == 0) {
      after_separator = true;
    } else {
      (after_separator ? new_paths : old_paths).push_back(argv[i]);
    }
  }
  if (old_paths.empty() || new_paths.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  try {
    std::vector<gridbox::obs::BenchReport> old_reports;
    std::vector<gridbox::obs::BenchReport> new_reports;
    for (const std::string& path : old_paths) {
      old_reports.push_back(gridbox::obs::BenchReport::load(path));
    }
    for (const std::string& path : new_paths) {
      new_reports.push_back(gridbox::obs::BenchReport::load(path));
    }
    const auto diff =
        gridbox::obs::bench_diff(old_reports, new_reports, threshold);
    std::printf("suite %s: %s (%s x%zu -> %s x%zu, min wall per side)\n",
                new_reports.front().suite.c_str(),
                diff.ok() ? "ok" : "FAILED",
                old_reports.front().git_rev.c_str(), old_reports.size(),
                new_reports.front().git_rev.c_str(), new_reports.size());
    std::fputs(diff.render().c_str(), stdout);
    return diff.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

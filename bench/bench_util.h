// Shared output helpers for the figure-reproduction benches.
//
// Every bench prints (a) a header identifying the paper experiment, (b) an
// aligned table with the same series the paper plots, and (c) writes the
// table as CSV under ./bench_results/ for plotting.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/obs/json.h"
#include "src/runner/sweep.h"
#include "src/runner/table.h"

namespace gridbox::bench {

inline void print_header(const std::string& figure, const std::string& what,
                         const std::string& setup) {
  std::printf("=== %s — %s ===\n", figure.c_str(), what.c_str());
  std::printf("setup: %s\n\n", setup.c_str());
}

/// Parses `--jobs N` from a bench binary's argv. Returns 0 (= auto: the
/// GRIDBOX_JOBS env var, else hardware_concurrency) when absent or
/// malformed — benches never fail on flags, they fall back to auto — but a
/// malformed or missing value warns on stderr so a typo ("--jobs 8x",
/// "--jobs -2") is not silently ignored.
inline std::size_t jobs_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") != 0) continue;
    if (i + 1 >= argc) {
      std::fprintf(stderr,
                   "warning: --jobs: missing value, using auto job count\n");
      return 0;
    }
    const char* value = argv[i + 1];
    char* end = nullptr;
    const long parsed = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || parsed <= 0) {
      std::fprintf(
          stderr,
          "warning: --jobs: not a positive integer: '%s', using auto job "
          "count\n",
          value);
      return 0;
    }
    return static_cast<std::size_t>(parsed);
  }
  return 0;
}

/// The one argument parser every bench main calls, before any work: argv
/// may hold only `--jobs N` (parsed by jobs_from_args). `--help` prints
/// usage and exits 0; any other argument prints usage to stderr and exits
/// 2, so a mistyped flag never runs the sweep and overwrites
/// bench_results/.
inline std::size_t parse_args(int argc, char** argv) {
  const char* name = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      ++i;  // its value, checked by jobs_from_args
      continue;
    }
    const bool help = std::strcmp(argv[i], "--help") == 0;
    if (!help) {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", name, argv[i]);
    }
    std::fprintf(help ? stdout : stderr,
                 "usage: %s [--jobs N]\n"
                 "  --jobs N  worker threads (default: GRIDBOX_JOBS, else "
                 "every CPU)\n"
                 "Prints the figure's table and writes it to "
                 "bench_results/ under the working directory.\n",
                 name);
    std::exit(help ? 0 : 2);
  }
  return jobs_from_args(argc, argv);
}

/// Chaos identification for CSV cells: the spec on one line ('\n' -> ';'),
/// or "-" when the run is chaos-free. Never empty, so columns stay aligned.
inline std::string chaos_id(const std::string& chaos_spec) {
  if (chaos_spec.empty()) return "-";
  std::string id = chaos_spec;
  while (!id.empty() && id.back() == '\n') id.pop_back();
  for (char& c : id) {
    if (c == '\n') c = ';';
  }
  return id;
}

/// Appends the reproducibility identification columns (seed / jobs / chaos)
/// every bench CSV row must carry. `jobs` is resolved so the CSV records
/// what actually ran, not the auto placeholder.
inline void append_repro(runner::Table& table, std::uint64_t seed,
                         std::size_t jobs, const std::string& chaos_spec) {
  table.add_constant_column("seed", std::to_string(seed));
  table.add_constant_column(
      "jobs", std::to_string(common::ThreadPool::resolve_jobs(jobs)));
  table.add_constant_column("chaos", chaos_id(chaos_spec));
}

/// The same columns for analysis-only benches (closed-form tables with no
/// simulated runs): all "-", keeping every emitted CSV schema-uniform.
inline void append_repro_analysis(runner::Table& table) {
  table.add_constant_column("seed", "-");
  table.add_constant_column("jobs", "-");
  table.add_constant_column("chaos", "-");
}

/// Standard rendering of a sweep: one row per x with the paper's y metric
/// (incompleteness) plus context columns. The trailing wall_s/jobs columns
/// are per-sweep totals (repeated on every row so they survive into the
/// CSV), tracking the harness's throughput over time.
inline runner::Table sweep_table(const runner::SweepResult& sweep) {
  runner::Table table({sweep.x_label, "incompleteness", "geomean", "min",
                       "max", "completeness", "msgs/run", "rounds",
                       "eff_b", "wall_s", "jobs"});
  for (const auto& p : sweep.points) {
    table.add_row({runner::Table::num(p.x),
                   runner::Table::num(p.incompleteness.mean),
                   runner::Table::num(p.incompleteness_geomean),
                   runner::Table::num(p.incompleteness.min),
                   runner::Table::num(p.incompleteness.max),
                   runner::Table::num(p.completeness.mean),
                   runner::Table::num(p.messages.mean, 0),
                   runner::Table::num(p.rounds.mean, 1),
                   runner::Table::num(p.mean_effective_b, 2),
                   runner::Table::num(sweep.wall_seconds, 3),
                   std::to_string(sweep.jobs_used)});
  }
  // Reproducibility identification (jobs is already a column above).
  table.add_constant_column("seed", std::to_string(sweep.base_seed));
  table.add_constant_column("chaos", chaos_id(sweep.chaos_spec));
  return table;
}

/// One-line sweep cost report (the same numbers as the wall_s/jobs columns).
inline void print_sweep_meta(const runner::SweepResult& sweep) {
  std::printf("[sweep] %zu point(s): wall-clock %.3f s on %zu job(s)\n",
              sweep.points.size(), sweep.wall_seconds, sweep.jobs_used);
}

/// Fans `count` independent tasks (task(i) -> T) across a thread pool and
/// returns the results in index order, so callers reduce serially and the
/// outcome is identical for every jobs value. `jobs` = 0 means auto
/// (GRIDBOX_JOBS / hardware_concurrency). Benches whose run loops don't go
/// through run_sweep use this to honour --jobs the same way sweeps do.
template <typename T, typename Task>
std::vector<T> run_indexed(std::size_t count, std::size_t jobs,
                           const Task& task) {
  std::vector<T> results(count);
  const std::size_t workers =
      count <= 1 ? 1 : common::ThreadPool::resolve_jobs(jobs);
  common::run_indexed(count, workers,
                      [&](std::size_t i) { results[i] = task(i); });
  return results;
}

/// The table as a machine-readable JSON document (schema-versioned like the
/// BENCH files): {"schema", "name", "columns", "rows"} with all cells as
/// strings, exactly as the CSV renders them.
inline std::string table_to_json(const runner::Table& table,
                                 const std::string& name) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("gridbox-bench-table/1");
  w.key("name").value(name);
  w.key("columns").begin_array();
  for (const std::string& column : table.header()) w.value(column);
  w.end_array();
  w.key("rows").begin_array();
  for (std::size_t i = 0; i < table.rows(); ++i) {
    w.begin_array();
    for (const std::string& cell : table.row(i)) w.value(cell);
    w.end_array();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

inline void emit(const runner::Table& table, const std::string& csv_name) {
  std::fputs(table.to_text().c_str(), stdout);
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (!ec) {
    const std::string path = "bench_results/" + csv_name + ".csv";
    if (table.write_csv(path)) {
      std::printf("\n[csv] %s\n", path.c_str());
    }
    // The same rows as JSON, for tooling that would rather not parse CSV.
    const std::string json_path = "bench_results/" + csv_name + ".json";
    if (std::ofstream out(json_path, std::ios::binary); out.good()) {
      out << table_to_json(table, csv_name) << '\n';
      if (out.good()) std::printf("[json] %s\n", json_path.c_str());
    }
  }
  std::printf("\n");
}

/// Audit-violation guard: a figure regenerated by a run that double-counted
/// votes would be meaningless.
inline void check_audits(const runner::SweepResult& sweep) {
  for (const auto& p : sweep.points) {
    if (p.audit_violations != 0) {
      std::printf("WARNING: %llu audit violations at x=%g\n",
                  static_cast<unsigned long long>(p.audit_violations), p.x);
    }
  }
}

}  // namespace gridbox::bench

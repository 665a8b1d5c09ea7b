// Parameter sweeps: the machinery behind every figure reproduction.
//
// A sweep varies one knob across a list of x values; at each point it runs
// `runs_per_point` independent seeds and summarizes the measured
// incompleteness (and auxiliary metrics). Bench binaries print the resulting
// series — the same rows the paper plots.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/runner/config.h"
#include "src/runner/experiment.h"
#include "src/runner/stats.h"

namespace gridbox::runner {

struct SweepPoint {
  double x = 0.0;
  SummaryStats incompleteness;       ///< 1 − mean completeness, per run
  double incompleteness_geomean = 0.0;  ///< log-scale-friendly average
  SummaryStats completeness;
  SummaryStats messages;             ///< network messages per run
  SummaryStats rounds;               ///< slowest node's rounds per run
  SummaryStats abs_error;            ///< |estimate − truth| per run
  double mean_effective_b = 0.0;
  std::uint64_t audit_violations = 0;  ///< summed across runs (must be 0)
};

struct SweepResult {
  std::string x_label;
  std::vector<SweepPoint> points;
  double wall_seconds = 0.0;  ///< host wall-clock for the whole sweep
  std::size_t jobs_used = 1;  ///< worker threads the sweep actually ran on

  // Reproducibility identification, copied from the base config so every
  // emitted row can carry it (bench CSV columns seed/jobs/chaos).
  std::uint64_t base_seed = 0;
  std::string chaos_spec;

  /// Sum of sim events across all runs (drives events/s in benches).
  std::uint64_t total_sim_events = 0;

  /// Metric snapshots of all runs, merged in slot order during the serial
  /// reduction. Empty unless base.collect_metrics: counters and histogram
  /// buckets sum, gauges keep the maximum — all associative, so the merged
  /// snapshot is bitwise-identical at any jobs value.
  obs::MetricsSnapshot metrics;

  /// Per-layer profiles merged across runs (counts deterministic, self
  /// times wall-clock). Empty unless profiling was on.
  obs::ProfileSnapshot profile;
};

/// Runs the sweep. `apply` mutates a copy of `base` for the given x.
///
/// Seeds are derived in closed form per (point, run):
///     seed = base.seed + point_index * runs_per_point + run
/// i.e. point 0 uses base.seed .. base.seed+runs_per_point-1, point 1 the
/// next block, and so on — no two (point, run) pairs share a seed, and a
/// point's seeds do not depend on how many runs preceded it in program
/// order.
///
/// All (point, run) pairs are fanned across a thread pool of
/// base.resolved_jobs() workers (base.jobs; 0 = auto from GRIDBOX_JOBS /
/// hardware_concurrency). Because each run's seed is position-derived and
/// results land in pre-sized slots reduced in serial order, the returned
/// SweepResult is bitwise-identical for every jobs value, including the
/// serial jobs=1 path.
///
/// With jobs > 1, `apply` is invoked concurrently from pool threads: it must
/// only mutate the config copy it is given (capturing by value or reading
/// immutable state is fine; writing shared state is not).
[[nodiscard]] SweepResult run_sweep(
    const ExperimentConfig& base, std::string x_label,
    const std::vector<double>& xs,
    const std::function<void(ExperimentConfig&, double)>& apply,
    std::size_t runs_per_point);

}  // namespace gridbox::runner

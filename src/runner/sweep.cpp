#include "src/runner/sweep.h"

#include <chrono>
#include <utility>

#include "src/common/ensure.h"
#include "src/common/thread_pool.h"

namespace gridbox::runner {

namespace {

/// Runs every (point, run) pair and fills `results` (pre-sized to
/// xs.size() * runs_per_point, indexed point_index * runs_per_point + run).
/// The seed for each slot is derived in closed form from the slot index, so
/// execution order — serial or across pool threads — cannot affect any
/// result.
void execute_runs(const ExperimentConfig& base,
                  const std::vector<double>& xs,
                  const std::function<void(ExperimentConfig&, double)>& apply,
                  std::size_t runs_per_point, std::size_t jobs,
                  std::vector<RunResult>& results) {
  common::run_indexed(results.size(), jobs, [&](std::size_t slot) {
    ExperimentConfig config = base;
    apply(config, xs[slot / runs_per_point]);
    config.seed = base.seed + static_cast<std::uint64_t>(slot);
    results[slot] = run_experiment(config);
  });
}

}  // namespace

SweepResult run_sweep(
    const ExperimentConfig& base, std::string x_label,
    const std::vector<double>& xs,
    const std::function<void(ExperimentConfig&, double)>& apply,
    std::size_t runs_per_point) {
  expects(!xs.empty(), "sweep needs at least one x value");
  expects(runs_per_point >= 1, "sweep needs at least one run per point");

  const auto start = std::chrono::steady_clock::now();

  SweepResult result;
  result.x_label = std::move(x_label);
  result.points.reserve(xs.size());
  result.jobs_used = base.resolved_jobs();
  result.base_seed = base.seed;
  result.chaos_spec = base.chaos_spec;

  std::vector<RunResult> runs(xs.size() * runs_per_point);
  execute_runs(base, xs, apply, runs_per_point, result.jobs_used, runs);

  // Reduction stays single-threaded and in (point, run) order, so the
  // floating-point summaries are independent of pool scheduling.
  for (std::size_t point_index = 0; point_index < xs.size(); ++point_index) {
    SweepPoint point;
    point.x = xs[point_index];

    std::vector<double> incompleteness;
    std::vector<double> completeness;
    std::vector<double> messages;
    std::vector<double> rounds;
    std::vector<double> errors;
    double b_sum = 0.0;

    for (std::size_t run = 0; run < runs_per_point; ++run) {
      const RunResult& r = runs[point_index * runs_per_point + run];
      incompleteness.push_back(r.measurement.mean_incompleteness);
      completeness.push_back(r.measurement.mean_completeness);
      messages.push_back(static_cast<double>(r.measurement.network_messages));
      rounds.push_back(static_cast<double>(r.measurement.max_rounds));
      errors.push_back(r.measurement.mean_abs_error);
      b_sum += r.effective_b;
      point.audit_violations += r.measurement.audit_violations;
      result.total_sim_events += r.sim_events;
      result.metrics.merge(r.metrics);
      result.profile.merge(r.profile);
    }

    point.incompleteness = summarize(incompleteness);
    point.incompleteness_geomean = geometric_mean(incompleteness);
    point.completeness = summarize(completeness);
    point.messages = summarize(messages);
    point.rounds = summarize(rounds);
    point.abs_error = summarize(errors);
    point.mean_effective_b = b_sum / static_cast<double>(runs_per_point);
    result.points.push_back(point);
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace gridbox::runner

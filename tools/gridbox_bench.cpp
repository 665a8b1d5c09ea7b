// gridbox_bench: the benchmark harness.
//
// Runs fixed benchmark suites over the simulator and writes one
// schema-versioned BENCH_<suite>.json per suite (see src/obs/bench_io.h):
//
//   micro_core   -> BENCH_core.json    the six end-to-end runs of
//                                      bench/micro_cases.h
//   fig06_scale  -> BENCH_scale.json   the Figure 6 scalability slice
//   chaos_stress -> BENCH_chaos.json   chaos-scripted adversity worlds
//   service      -> BENCH_service.json streaming-epoch service runs
//                                      (sustained instances/s, p99
//                                      completion; both informational in
//                                      bench_diff, like B/member)
//
// Each kind of number has one verdict. Counted work (sim_events,
// network_messages, bytes on the wire) is deterministic per case, so the
// tier-1 test tests/test_regression.cpp pins it exactly for the micro
// cases. Wall time depends on the host, so it is judged only as an A/B on
// one runner: invocations of two builds interleaved, each case scored by
// its minimum wall per build (tools/bench_diff; docs/perf.md has the
// recipe CI runs). Wall times in one report are medians over --repeats.
//
// usage: gridbox_bench [--suite micro|scale|chaos|service|all]
//                      [--quick] [--repeats R] [--out DIR] [--jobs N]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "bench/micro_cases.h"
#include "src/obs/bench_io.h"
#include "src/obs/build_info.h"
#include "src/obs/curves.h"
#include "src/obs/lineage.h"
#include "src/obs/telemetry.h"
#include "src/runner/config.h"
#include "src/runner/experiment.h"
#include "src/runner/sweep.h"
#include "src/service/service.h"

namespace {

using gridbox::bench::paper_config;
using gridbox::obs::BenchEntry;
using gridbox::obs::BenchReport;
using gridbox::runner::ExperimentConfig;
using gridbox::runner::RunResult;

struct BenchOptions {
  bool micro = true;
  bool scale = true;
  bool chaos = true;
  bool service = true;
  bool quick = false;
  bool huge = false;  ///< add the 10^6-member scale point
  bool obs_overhead = false;  ///< gate mode instead of the suites
  double threshold_pct = 5.0;  ///< --obs-overhead failure threshold
  std::uint64_t repeats = 0;  ///< 0 = suite default (5, quick 2)
  std::string out_dir = ".";
  std::size_t jobs = 0;  ///< sweep-case worker threads; 0 = auto
};

double elapsed_s(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Times `body` (which must return (sim_events, network_messages) of the
/// repeat) `repeats` times and appends the median-wall entry.
template <typename Body>
void run_case(BenchReport& report, const std::string& name,
              std::uint64_t repeats, const Body& body) {
  std::vector<double> walls;
  std::uint64_t sim_events = 0;
  std::uint64_t network_messages = 0;
  for (std::uint64_t r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const auto [events, messages] = body();
    walls.push_back(elapsed_s(start));
    // Deterministic per case: every repeat computes the same totals.
    sim_events = events;
    network_messages = messages;
  }
  std::sort(walls.begin(), walls.end());
  BenchEntry entry;
  entry.name = name;
  entry.wall_s = walls[walls.size() / 2];
  entry.sim_events = sim_events;
  entry.network_messages = network_messages;
  if (entry.wall_s > 0.0) {
    entry.events_per_s = static_cast<double>(sim_events) / entry.wall_s;
    entry.msgs_per_s = static_cast<double>(network_messages) / entry.wall_s;
  }
  entry.peak_rss_mb =
      static_cast<double>(gridbox::obs::peak_rss_bytes()) / (1024.0 * 1024.0);
  std::printf("  %-28s wall %8.4f s   %10.0f events/s   %9.0f msgs/s\n",
              name.c_str(), entry.wall_s, entry.events_per_s,
              entry.msgs_per_s);
  report.entries.push_back(std::move(entry));
}

/// Lossless saturation config for the big-N scale points: no loss, no
/// crashes, audit on. With every box saturating, phases end by early bump
/// and the audit registry's content dedup collapses the per-node provenance
/// sets, so even 10^5..10^6 members complete in seconds.
ExperimentConfig scale_config(std::size_t n) {
  ExperimentConfig config;
  config.group_size = n;
  config.ucast_loss = 0.0;
  config.crash_probability = 0.0;
  config.audit = true;
  config.seed = 20010701;
  return config;
}

/// Stamps the just-appended entry with peak RSS per member. Peak RSS is
/// process-wide and monotone, so big-N cases must run before anything
/// larger; the column is informational (bench_diff never gates on it).
void note_rss_per_member(BenchReport& report, std::size_t members) {
  BenchEntry& entry = report.entries.back();
  entry.rss_per_member_b =
      entry.peak_rss_mb * 1024.0 * 1024.0 / static_cast<double>(members);
  std::printf("  %-28s peak rss %8.1f MB   %8.0f B/member\n",
              entry.name.c_str(), entry.peak_rss_mb, entry.rss_per_member_b);
}

/// One end-to-end run as a bench body.
auto single_run_body(const ExperimentConfig& config) {
  return [config]() {
    const RunResult result = gridbox::runner::run_experiment(config);
    return std::pair<std::uint64_t, std::uint64_t>(
        result.sim_events, result.measurement.network_messages);
  };
}

BenchReport new_report(const char* suite, const BenchOptions& options,
                       std::uint64_t repeats) {
  BenchReport report;
  report.suite = suite;
  report.git_rev = gridbox::obs::git_revision();
  report.repeats = repeats;
  report.jobs = options.jobs == 0 ? 1 : options.jobs;
  return report;
}

BenchReport run_micro(const BenchOptions& options, std::uint64_t repeats) {
  BenchReport report = new_report("micro_core", options, repeats);
  std::printf("suite micro_core (%llu repeat(s)):\n",
              static_cast<unsigned long long>(repeats));

  for (const gridbox::bench::MicroCase& c : gridbox::bench::micro_cases()) {
    run_case(report, c.name, repeats, single_run_body(c.config));
  }
  return report;
}

BenchReport run_scale(const BenchOptions& options, std::uint64_t repeats) {
  BenchReport report = new_report("fig06_scale", options, repeats);
  std::printf("suite fig06_scale (%llu repeat(s)):\n",
              static_cast<unsigned long long>(repeats));

  const std::vector<double> ns = options.quick
                                     ? std::vector<double>{200, 400}
                                     : std::vector<double>{200, 400, 800, 1600};
  const std::size_t runs_per_point = options.quick ? 2 : 4;
  ExperimentConfig base = paper_config();
  base.jobs = options.jobs;
  run_case(report, "fig06_slice", repeats, [&] {
    const gridbox::runner::SweepResult sweep = gridbox::runner::run_sweep(
        base, "n", ns,
        [](ExperimentConfig& config, double n) {
          config.group_size = static_cast<std::size_t>(n);
        },
        runs_per_point);
    std::uint64_t messages = 0;
    for (const auto& point : sweep.points) {
      messages += static_cast<std::uint64_t>(point.messages.mean *
                                             static_cast<double>(
                                                 runs_per_point));
    }
    return std::pair<std::uint64_t, std::uint64_t>(sweep.total_sim_events,
                                                   messages);
  });

  if (!options.quick) {
    // Struct-of-arrays scale points: one audited lossless run well past the
    // paper's N range. Deterministic like every other case, but minutes
    // long — so always a single repeat, whatever --repeats says.
    run_case(report, "hier_n100k", 1, single_run_body(scale_config(100'000)));
    note_rss_per_member(report, 100'000);
    if (options.huge) {
      run_case(report, "hier_n1m", 1, single_run_body(scale_config(1'000'000)));
      note_rss_per_member(report, 1'000'000);
    }
  }
  return report;
}

BenchReport run_chaos(const BenchOptions& options, std::uint64_t repeats) {
  BenchReport report = new_report("chaos_stress", options, repeats);
  std::printf("suite chaos_stress (%llu repeat(s)):\n",
              static_cast<unsigned long long>(repeats));

  ExperimentConfig base = paper_config();
  base.chaos_spec =
      "loss 0.25\n"
      "burst 10ms..120ms good=0.05 bad=0.8 go-bad=0.1 go-good=0.2\n";
  run_case(report, "chaos_loss_burst", repeats, single_run_body(base));

  ExperimentConfig crashy = paper_config();
  crashy.chaos_spec =
      "crash M3 at=20ms\ncrash M17 at=35ms\ncrash M42 at=50ms\n"
      "crash M99 at=65ms\ncrash M150 at=80ms\n";
  run_case(report, "chaos_crash_batch", repeats, single_run_body(crashy));

  if (!options.quick) {
    ExperimentConfig storm = paper_config();
    storm.group_size = 400;
    storm.chaos_spec =
        "loss 0.35\n"
        "dup p=0.2 extra=1 spread=500us\n"
        "jitter p=0.3 0us..2ms\n";
    run_case(report, "chaos_dup_storm_n400", repeats, single_run_body(storm));
  }
  return report;
}

/// Times one service stream `repeats` times and appends the median-wall
/// entry, stamped with the service metrics (instances/s on the virtual
/// clock and p99 completion — both deterministic per case).
void run_service_case(BenchReport& report, const std::string& name,
                      std::uint64_t repeats,
                      const gridbox::service::ServiceConfig& config) {
  std::vector<double> walls;
  gridbox::service::ServiceResult last;
  for (std::uint64_t r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    last = gridbox::service::run_service_experiment(config);
    walls.push_back(elapsed_s(start));
  }
  std::sort(walls.begin(), walls.end());
  BenchEntry entry;
  entry.name = name;
  entry.wall_s = walls[walls.size() / 2];
  entry.sim_events = last.sim_events;
  for (const auto& inst : last.instances) {
    entry.network_messages += inst.network.messages_sent;
  }
  if (entry.wall_s > 0.0) {
    entry.events_per_s = static_cast<double>(entry.sim_events) / entry.wall_s;
    entry.msgs_per_s =
        static_cast<double>(entry.network_messages) / entry.wall_s;
  }
  entry.peak_rss_mb =
      static_cast<double>(gridbox::obs::peak_rss_bytes()) / (1024.0 * 1024.0);
  entry.instances_per_s = last.metrics.instances_per_sec;
  entry.p99_completion_ms =
      static_cast<double>(last.metrics.p99_completion.ticks()) / 1000.0;
  std::printf(
      "  %-28s wall %8.4f s   %6.1f inst/s   p99 %7.1f ms   %zu/%zu ok\n",
      name.c_str(), entry.wall_s, entry.instances_per_s,
      entry.p99_completion_ms, last.metrics.completed, last.metrics.launched);
  report.entries.push_back(std::move(entry));
}

BenchReport run_service(const BenchOptions& options, std::uint64_t repeats) {
  BenchReport report = new_report("service", options, repeats);
  std::printf("suite service (%llu repeat(s)):\n",
              static_cast<unsigned long long>(repeats));

  // Paper-adversity service stream: N = 64 cohorts under 25% loss, epochs
  // every 20 ms with an 8-wide window.
  gridbox::service::ServiceConfig base;
  base.experiment = paper_config();
  base.experiment.group_size = 64;
  base.experiment.audit = true;
  base.experiment.crash_probability = 0.0;
  base.instances = options.quick ? 8 : 32;
  base.epoch_interval = gridbox::SimTime::millis(20);
  base.max_in_flight = 8;
  run_service_case(report, "service_n64_stream", repeats, base);

  // The same stream under churn: two joiners enter mid-stream, one chaos
  // crash recovers later.
  gridbox::service::ServiceConfig churn = base;
  churn.experiment.chaos_spec =
      "join M7 at=60ms\n"
      "join M11 at=120ms\n"
      "crash M3 at=40ms\n"
      "recover M3 at=200ms\n";
  run_service_case(report, "service_n64_churn", repeats, churn);

  if (!options.quick) {
    gridbox::service::ServiceConfig wide = base;
    wide.experiment.group_size = 200;
    wide.instances = 16;
    wide.max_in_flight = 4;
    run_service_case(report, "service_n200_stream", repeats, wide);
  }
  return report;
}

/// --obs-overhead: the CI gate that observability stays cheap. Times the
/// micro workload bare, with metrics + lineage armed, and with live
/// telemetry sampling on (the two gated pairs) and fails when either
/// instrumented time is more than `threshold_pct` percent slower;
/// metrics-only and metrics+lineage+curves are reported alongside for
/// context. Repeats interleave the variants so thermal drift and cache
/// warmth hit all of them equally, and each variant is scored by its
/// *minimum* wall time: scheduler noise only ever adds time, so the min
/// estimates the true cost and keeps a single-digit-percent gate stable on
/// a ~10 ms workload.
int run_obs_overhead(std::uint64_t repeats, double threshold_pct) {
  const ExperimentConfig base = paper_config();
  ExperimentConfig instrumented = base;
  instrumented.collect_metrics = true;

  const auto timed_bare = [&] {
    const auto start = std::chrono::steady_clock::now();
    (void)gridbox::runner::run_experiment(base);
    return elapsed_s(start);
  };
  const auto timed_metrics = [&] {
    const auto start = std::chrono::steady_clock::now();
    (void)gridbox::runner::run_experiment(instrumented);
    return elapsed_s(start);
  };
  const auto timed_lineage = [&] {
    gridbox::obs::LineageTracker::Options lopt;
    lopt.group_size = instrumented.group_size;
    gridbox::obs::LineageTracker lineage(lopt);
    ExperimentConfig config = instrumented;
    config.lineage = &lineage;
    const auto start = std::chrono::steady_clock::now();
    (void)gridbox::runner::run_experiment(config);
    return elapsed_s(start);
  };
  const auto timed_full = [&] {
    gridbox::obs::LineageTracker::Options lopt;
    lopt.group_size = instrumented.group_size;
    gridbox::obs::LineageTracker lineage(lopt);
    gridbox::obs::CurveRecorder::Options copt;
    copt.round_us =
        static_cast<std::uint64_t>(instrumented.round_duration().ticks());
    gridbox::obs::CurveRecorder curves(copt);
    ExperimentConfig config = instrumented;
    config.lineage = &lineage;
    config.curves = &curves;
    const auto start = std::chrono::steady_clock::now();
    (void)gridbox::runner::run_experiment(config);
    return elapsed_s(start);
  };

  // Live telemetry on: the sampler streams JSONL into an in-memory sink at
  // the default cadence, so the measured cost is the hooks plus the
  // sampling, with no filesystem noise in the gate.
  const auto timed_telemetry = [&] {
    ExperimentConfig config = base;
    std::string sink;
    config.telemetry.enabled = true;
    config.telemetry.sink = &sink;
    const auto start = std::chrono::steady_clock::now();
    (void)gridbox::runner::run_experiment(config);
    return elapsed_s(start);
  };

  // One untimed warm-up of each variant.
  (void)timed_bare();
  (void)timed_metrics();
  (void)timed_lineage();
  (void)timed_full();
  (void)timed_telemetry();

  std::vector<double> off_walls;
  std::vector<double> metrics_walls;
  std::vector<double> on_walls;
  std::vector<double> full_walls;
  std::vector<double> telemetry_walls;
  for (std::uint64_t r = 0; r < repeats; ++r) {
    off_walls.push_back(timed_bare());
    metrics_walls.push_back(timed_metrics());
    on_walls.push_back(timed_lineage());
    full_walls.push_back(timed_full());
    telemetry_walls.push_back(timed_telemetry());
  }
  const double off = *std::min_element(off_walls.begin(), off_walls.end());
  const double metrics =
      *std::min_element(metrics_walls.begin(), metrics_walls.end());
  const double on = *std::min_element(on_walls.begin(), on_walls.end());
  const double full = *std::min_element(full_walls.begin(), full_walls.end());
  const double telemetry =
      *std::min_element(telemetry_walls.begin(), telemetry_walls.end());
  const double overhead_pct = off > 0.0 ? (on / off - 1.0) * 100.0 : 0.0;
  const double full_pct = off > 0.0 ? (full / off - 1.0) * 100.0 : 0.0;
  const double telemetry_pct = off > 0.0 ? (telemetry / off - 1.0) * 100.0
                                         : 0.0;
  std::printf(
      "obs-overhead: bare %.4f s, metrics %.4f s, metrics+lineage %.4f s, "
      "overhead %+.2f%% (threshold +%.1f%%); telemetry %.4f s (%+.2f%%, "
      "gated); +curves %.4f s (%+.2f%%, informational)\n",
      off, metrics, on, overhead_pct, threshold_pct, telemetry, telemetry_pct,
      full, full_pct);
  int failures = 0;
  if (overhead_pct > threshold_pct) {
    std::fprintf(stderr,
                 "error: observability overhead %+.2f%% exceeds +%.1f%%\n",
                 overhead_pct, threshold_pct);
    ++failures;
  }
  if (telemetry_pct > threshold_pct) {
    std::fprintf(stderr,
                 "error: telemetry overhead %+.2f%% exceeds +%.1f%%\n",
                 telemetry_pct, threshold_pct);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

int usage(int code) {
  std::fputs(
      "gridbox_bench — benchmark suites emitting BENCH_*.json\n"
      "\n"
      "usage: gridbox_bench [flags]\n"
      "  --suite NAME   micro | scale | chaos | service | all (default all)\n"
      "  --quick        fewer repeats; scale, chaos and service also run\n"
      "                 fewer or smaller cases (micro runs all six)\n"
      "  --huge         add the 10^6-member scale point (scale suite only)\n"
      "  --repeats R    wall-time repeats per case (default 5; --quick 2)\n"
      "  --out DIR      output directory for BENCH_*.json (default .)\n"
      "  --jobs N       worker threads for sweep cases (default auto)\n"
      "  --obs-overhead gate mode: compare the micro workload bare vs with\n"
      "                 metrics+lineage armed and vs live telemetry on;\n"
      "                 exit 1 when either instrumented min is over the\n"
      "                 threshold\n"
      "  --threshold P  --obs-overhead failure threshold in percent\n"
      "                 (default 5)\n"
      "  --help         this text\n",
      code == 0 ? stdout : stderr);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--help" || flag == "-h") return usage(0);
    if (flag == "--quick") {
      options.quick = true;
    } else if (flag == "--huge") {
      options.huge = true;
    } else if (flag == "--obs-overhead") {
      options.obs_overhead = true;
    } else if (flag == "--threshold") {
      const char* value = next();
      if (value == nullptr || std::atof(value) <= 0.0) {
        std::fprintf(stderr, "error: --threshold: need a positive percent\n");
        return usage(1);
      }
      options.threshold_pct = std::atof(value);
    } else if (flag == "--suite") {
      const char* value = next();
      if (value == nullptr) {
        std::fprintf(stderr, "error: --suite: missing value\n");
        return usage(1);
      }
      options.micro = options.scale = options.chaos = options.service = false;
      if (std::strcmp(value, "micro") == 0) {
        options.micro = true;
      } else if (std::strcmp(value, "scale") == 0) {
        options.scale = true;
      } else if (std::strcmp(value, "chaos") == 0) {
        options.chaos = true;
      } else if (std::strcmp(value, "service") == 0) {
        options.service = true;
      } else if (std::strcmp(value, "all") == 0) {
        options.micro = options.scale = options.chaos = options.service =
            true;
      } else {
        std::fprintf(stderr, "error: --suite: unknown: %s\n", value);
        return usage(1);
      }
    } else if (flag == "--repeats") {
      const char* value = next();
      if (value == nullptr || std::atoll(value) <= 0) {
        std::fprintf(stderr, "error: --repeats: need a positive integer\n");
        return usage(1);
      }
      options.repeats = static_cast<std::uint64_t>(std::atoll(value));
    } else if (flag == "--out") {
      const char* value = next();
      if (value == nullptr) {
        std::fprintf(stderr, "error: --out: missing value\n");
        return usage(1);
      }
      options.out_dir = value;
    } else if (flag == "--jobs") {
      const char* value = next();
      if (value == nullptr || std::atoll(value) <= 0) {
        std::fprintf(stderr, "error: --jobs: need a positive integer\n");
        return usage(1);
      }
      options.jobs = static_cast<std::size_t>(std::atoll(value));
    } else {
      std::fprintf(stderr, "error: unknown flag: %s\n", flag.c_str());
      return usage(1);
    }
  }

  const std::uint64_t repeats =
      options.repeats != 0 ? options.repeats : (options.quick ? 2 : 5);

  if (options.obs_overhead) {
    // The gate needs a tighter min than the suites: the workload is ~10 ms,
    // so a handful of repeats leaves percent-level noise in the estimate.
    const std::uint64_t gate_repeats =
        options.repeats != 0 ? options.repeats : 15;
    return run_obs_overhead(gate_repeats, options.threshold_pct);
  }

  const auto emit = [&](const BenchReport& report, const char* filename) {
    std::error_code ec;
    std::filesystem::create_directories(options.out_dir, ec);
    const std::string path = options.out_dir + "/" + filename;
    if (!report.write(path)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("[bench] %s\n", path.c_str());
    return true;
  };

  bool ok = true;
  if (options.micro) ok = emit(run_micro(options, repeats), "BENCH_core.json") && ok;
  if (options.scale) ok = emit(run_scale(options, repeats), "BENCH_scale.json") && ok;
  if (options.chaos) ok = emit(run_chaos(options, repeats), "BENCH_chaos.json") && ok;
  if (options.service) {
    ok = emit(run_service(options, repeats), "BENCH_service.json") && ok;
  }
  return ok ? 0 : 1;
}

// A long-lived aggregation *service*: periodic MAX epochs with alarms.
//
// §2: "Our discussion considers only one run of the aggregation protocol,
// but this can be extended to one which periodically calculates the global
// aggregate." service::run_service_experiment is that extension — a stream
// of Hierarchical Gossiping instances over one group, one per epoch, each
// aggregating fresh readings while its predecessors may still be draining.
//
// 256 sensors report noisy readings under 15% message loss, and every epoch
// computes the MAX. A member's estimate is the max over the readings it
// heard of, so it never exceeds the true max: the mean estimate is exactly
// true max − mean |error|. An epoch alarms when that mean estimate crosses
// the threshold — a group-wide decision made from local estimates.
//
//   $ ./build/examples/periodic_service
#include <cstdio>

#include "src/service/service.h"

int main() {
  using namespace gridbox;

  constexpr double kAlarmAt = 93.0;

  service::ServiceConfig config;
  runner::ExperimentConfig& xc = config.experiment;
  xc.group_size = 256;
  xc.seed = 4242;
  xc.aggregate = agg::AggregateKind::kMax;
  xc.workload = runner::WorkloadKind::kNormal;
  xc.vote_mu = 70.0;
  xc.vote_sigma = 8.0;
  xc.ucast_loss = 0.15;
  xc.crash_probability = 0.0;
  xc.gossip.k = 4;
  xc.gossip.fanout_m = 2;
  xc.gossip.round_multiplier_c = 2.0;
  config.instances = 8;
  config.epoch_interval = SimTime::millis(200);
  config.max_in_flight = 4;

  const service::ServiceResult result = service::run_service_experiment(config);

  std::printf("periodic MAX service, %zu sensors, %zu epochs every %lld ms\n\n",
              xc.group_size, config.instances,
              static_cast<long long>(config.epoch_interval.ticks() / 1000));
  std::printf("%-6s %-10s %-10s %-10s %-13s %s\n", "epoch", "done ms",
              "true max", "est max", "completeness", "alarm");
  for (const service::InstanceResult& epoch : result.instances) {
    const protocols::RunMeasurement& m = epoch.measurement;
    const double estimate = m.true_value - m.mean_abs_error;
    std::printf("%-6u %-10lld %-10.2f %-10.2f %-13.4f %s\n", epoch.id,
                static_cast<long long>(epoch.completed_at.ticks() / 1000),
                m.true_value, estimate, m.mean_completeness,
                !epoch.completed      ? "FAILED"
                : estimate > kAlarmAt ? "ALARM"
                                      : "-");
  }
  std::printf(
      "\n%zu/%zu epochs completed; alarm threshold %.0f on the mean "
      "estimate.\n",
      result.metrics.completed, config.instances, kAlarmAt);
  return result.completed ? 0 : 1;
}

// The micro suite's cases, defined once: gridbox_bench times them (wall
// time, a same-runner A/B) and tests/test_regression.cpp pins the work they
// count (sim events, messages, bytes on the wire), exactly.
#pragma once

#include <string>
#include <vector>

#include "src/runner/config.h"

namespace gridbox::bench {

/// Paper §7 defaults: N = 200, ucastl = 0.25, pf = 0.001, K = 4, M = 2.
inline runner::ExperimentConfig paper_config() {
  runner::ExperimentConfig config;
  config.group_size = 200;
  config.ucast_loss = 0.25;
  config.crash_probability = 0.001;
  config.seed = 20010701;
  return config;
}

struct MicroCase {
  std::string name;  ///< stable case id in BENCH_core.json
  runner::ExperimentConfig config;
};

/// Single end-to-end runs at paper defaults: hier-gossip bare, with metrics,
/// audited and at N = 800, then the all-to-all and centralized baselines.
inline std::vector<MicroCase> micro_cases() {
  const runner::ExperimentConfig base = paper_config();
  std::vector<MicroCase> cases(6, MicroCase{"", base});
  cases[0].name = "hier_n200";
  cases[1].name = "hier_n200_metrics";
  cases[1].config.collect_metrics = true;
  cases[2].name = "hier_n200_audit";
  cases[2].config.audit = true;
  cases[3].name = "hier_n800";
  cases[3].config.group_size = 800;
  cases[4].name = "all_to_all_n200";
  cases[4].config.protocol = runner::ProtocolKind::kFullyDistributed;
  cases[5].name = "centralized_n200";
  cases[5].config.protocol = runner::ProtocolKind::kCentralized;
  return cases;
}

}  // namespace gridbox::bench

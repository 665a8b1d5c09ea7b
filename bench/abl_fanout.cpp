// Ablation 3 (DESIGN.md §5.2): gossip fanout M and value-selection policy.
//
// The paper fixes M=2 and "one uniformly random known value per message".
// This bench measures (a) the fanout/budget trade-off at a fixed message
// budget, and (b) whether smarter value selection (rarest-first, round-robin)
// buys anything over the paper's random choice.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/fig_common.h"
#include "src/runner/sweep.h"

int main(int argc, char** argv) {
  using namespace gridbox;
  bench::print_header("Ablation: fanout and value policy",
                      "incompleteness vs M and vs value-selection policy",
                      "N=200, K=4, ucastl=0.25, pf=0.001, C=1.0");

  const std::size_t jobs = bench::parse_args(argc, argv);

  // (a) Fanout sweep. Note rounds/phase = ceil(C*log_M N) shrinks as M
  // grows, so the per-phase message budget M*rounds is roughly constant:
  // this isolates the effect of spraying wider per round.
  runner::ExperimentConfig base = bench::paper_defaults();
  base.jobs = jobs;
  const runner::SweepResult fanout = runner::run_sweep(
      base, "M", {1, 2, 4, 8},
      [](runner::ExperimentConfig& c, double x) {
        c.gossip.fanout_m = static_cast<std::uint32_t>(x);
      },
      16);
  bench::check_audits(fanout);
  bench::print_sweep_meta(fanout);
  bench::emit(bench::sweep_table(fanout), "abl_fanout_m");

  // (b) Value policy at the default M=2.
  runner::Table policies({"value policy", "incompleteness", "geomean"});
  using protocols::gossip::ValuePolicy;
  const struct {
    const char* name;
    ValuePolicy policy;
  } kPolicies[] = {
      {"random single (paper)", ValuePolicy::kRandomSingle},
      {"rarest-first", ValuePolicy::kRarestFirst},
      {"round-robin", ValuePolicy::kRoundRobin},
  };
  for (const auto& entry : kPolicies) {
    runner::ExperimentConfig config = bench::paper_defaults();
    config.jobs = jobs;
    config.gossip.value_policy = entry.policy;
    const runner::SweepResult one = runner::run_sweep(
        config, "x", {0}, [](runner::ExperimentConfig&, double) {}, 24);
    policies.add_row(
        {entry.name,
         runner::Table::num(one.points[0].incompleteness.mean),
         runner::Table::num(one.points[0].incompleteness_geomean)});
  }
  bench::append_repro(policies, bench::paper_defaults().seed, jobs, "");
  bench::emit(policies, "abl_fanout_policy");

  std::printf(
      "takeaway: at a fixed budget, moderate fanout (M=2..4) is the sweet "
      "spot; value-selection policy is a second-order effect, supporting "
      "the paper's choice of the simplest rule.\n");
  return 0;
}

// §6.2's hidden cost, measured: how long does *accurate* failure detection
// take, compared with simply running the whole Hierarchical Gossiping
// aggregation?
//
// The leader-election approach needs to detect and replace failed leaders;
// the paper argues this "typically takes at least O(logN) time" and requires
// accuracy the network cannot cheaply provide. This bench runs the
// gossip-style failure detector (reference [16]) at timeouts tuned to stay
// accurate under each loss rate and reports group-wide detection latency —
// side by side with the full end-to-end runtime of the aggregation protocol
// itself. Detection alone costs a comparable number of rounds, which is why
// the one-shot protocol is designed to need no failure detection at all.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "bench/fig_common.h"
#include "src/protocols/fd/gossip_fd.h"
#include "src/runner/experiment.h"
#include "tests/testing_world.h"

namespace {

using namespace gridbox;

struct FdResult {
  double mean_rounds = 0.0;   // crash -> suspected, averaged over detectors
  double fp_rate = 0.0;       // live members wrongly suspected
};

/// Per-run partial sums, reduced serially after the parallel fan-out.
struct FdRunPartial {
  double latency_sum = 0.0;
  std::size_t latency_n = 0;
  std::size_t false_positives = 0;
  std::size_t checks = 0;
};

FdRunPartial measure_fd_run(double loss, std::uint32_t fail_rounds,
                            std::size_t run) {
  FdRunPartial partial;
  testing::WorldOptions options;
  options.group_size = 128;
  options.loss = loss;
  options.audit = false;
  options.seed = 4200 + static_cast<std::uint64_t>(run);
  testing::World world(options);
  protocols::fd::FdConfig config;
  config.fail_rounds = fail_rounds;
  std::vector<std::unique_ptr<protocols::fd::GossipFailureDetector>> fleet;
  const membership::View view = world.group().full_view();
  for (const MemberId m : world.group().members()) {
    fleet.push_back(std::make_unique<protocols::fd::GossipFailureDetector>(
        m, view, world.simulator(), world.network(),
        world.rng().derive(0xFD + m.value()), config));
    fleet.back()->set_liveness(
        [&world](MemberId id) { return world.group().is_alive(id); });
    world.network().attach(m, *fleet.back());
  }
  for (auto& d : fleet) d->start(SimTime::zero());
  // Crash one member at round ~30.
  const std::uint64_t crash_round = 30;
  world.simulator().schedule_at(SimTime::millis(10 * crash_round), [&world] {
    world.group().crash(MemberId{11});
  });
  world.simulator().run_until(SimTime::seconds(10));

  for (const auto& d : fleet) {
    if (d->self() == MemberId{11}) continue;
    const auto since = d->suspected_since(MemberId{11});
    if (since.has_value()) {
      partial.latency_sum += static_cast<double>(*since - crash_round);
      ++partial.latency_n;
    }
    partial.false_positives += d->suspected().size() -
                               (d->suspects(MemberId{11}) ? 1 : 0);
    partial.checks += 127;
  }
  return partial;
}

FdResult measure_fd(double loss, std::uint32_t fail_rounds, std::size_t runs,
                    std::size_t jobs) {
  const std::vector<FdRunPartial> partials =
      bench::run_indexed<FdRunPartial>(runs, jobs, [&](std::size_t run) {
        return measure_fd_run(loss, fail_rounds, run);
      });
  double latency_sum = 0.0;
  std::size_t latency_n = 0;
  std::size_t false_positives = 0;
  std::size_t checks = 0;
  for (const FdRunPartial& p : partials) {
    latency_sum += p.latency_sum;
    latency_n += p.latency_n;
    false_positives += p.false_positives;
    checks += p.checks;
  }
  FdResult result;
  result.mean_rounds = latency_n > 0 ? latency_sum / static_cast<double>(latency_n) : -1.0;
  result.fp_rate =
      checks > 0 ? static_cast<double>(false_positives) /
                       static_cast<double>(checks)
                 : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gridbox;
  bench::print_header(
      "Section 6.2 cost", "failure-detection latency vs aggregation runtime",
      "N=128; FD: fanout 2, 16 entries/msg; timeout tuned per loss rate");

  const std::size_t jobs = bench::parse_args(argc, argv);

  // The aggregation protocol's full runtime at the same N (for reference).
  runner::ExperimentConfig agg = bench::paper_defaults();
  agg.group_size = 128;
  agg.crash_probability = 0.0;
  const runner::RunResult agg_run = runner::run_experiment(agg);

  runner::Table table({"ucastl", "FD timeout (rounds)",
                       "detect latency (rounds)", "false-positive rate"});
  const struct {
    double loss;
    std::uint32_t fail_rounds;
  } kCells[] = {{0.0, 30}, {0.25, 40}, {0.5, 60}};
  for (const auto& cell : kCells) {
    const FdResult r = measure_fd(cell.loss, cell.fail_rounds, 6, jobs);
    table.add_row({runner::Table::num(cell.loss, 2),
                   std::to_string(cell.fail_rounds),
                   runner::Table::num(r.mean_rounds, 1),
                   runner::Table::num(r.fp_rate)});
  }
  bench::append_repro(table, 4200, jobs, "");
  bench::emit(table, "cmp_fd_latency");

  std::printf(
      "reference: the complete hierarchical-gossip aggregation at N=128 "
      "takes %llu rounds end-to-end.\n"
      "takeaway: merely *detecting* one failure accurately costs a similar "
      "order of rounds (and the timeout must grow with loss) — §6.2's case "
      "against failure-detector-based aggregation, quantified.\n",
      static_cast<unsigned long long>(agg_run.measurement.max_rounds));
  return 0;
}

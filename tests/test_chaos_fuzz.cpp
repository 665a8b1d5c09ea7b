// Heavy chaos corpus (CTest label: chaos) — sized for the sanitizer job.
// A larger random-spec sweep than the tier-1 seed corpus, plus the
// differential oracle: all four protocols run over the SAME chaos script
// and must agree on the ground truth, keep audited no-double-counting, and
// produce estimates that reconstruct exactly from their audited vote sets.
// Every failure message embeds the full spec text for standalone replay
// (`gridbox_sim --differential --chaos "<spec>"`).
#include <gtest/gtest.h>

#include "src/net/chaos.h"
#include "src/runner/differential.h"
#include "src/runner/experiment.h"

namespace gridbox {
namespace {

TEST(ChaosFuzz, LargeRandomCorpusHoldsInvariants) {
  Rng corpus_rng(0xD1CE);
  for (std::size_t i = 0; i < 96; ++i) {
    const net::ChaosSpec spec =
        net::random_chaos_spec(corpus_rng, 32, SimTime::millis(200));
    runner::ExperimentConfig config;
    config.group_size = 32;
    config.ucast_loss = 0.0;
    config.crash_probability = 0.0;
    config.audit = true;
    config.seed = 0xA000 + i;
    config.chaos_spec = spec.to_text();
    try {
      const runner::RunResult result = runner::run_experiment(config);
      EXPECT_EQ(result.measurement.audit_violations, 0u)
          << "spec " << i << ":\n" << spec.to_text();
      EXPECT_EQ(result.measurement.reconstruction_failures, 0u)
          << "spec " << i << ":\n" << spec.to_text();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "spec " << i << " violated a run invariant: "
                    << e.what() << "\nreplay spec:\n" << spec.to_text();
    }
  }
}

TEST(ChaosFuzz, DifferentialOracleAgreesUnderRandomChaos) {
  Rng corpus_rng(0x0D1FF);
  for (std::size_t i = 0; i < 24; ++i) {
    const net::ChaosSpec spec =
        net::random_chaos_spec(corpus_rng, 24, SimTime::millis(150));
    runner::ExperimentConfig base;
    base.group_size = 24;
    base.ucast_loss = 0.0;
    base.crash_probability = 0.0;
    base.seed = 0xB000 + i;
    base.chaos_spec = spec.to_text();
    const runner::DifferentialReport report = runner::run_differential(base);
    EXPECT_TRUE(report.ok()) << "protocols diverged under spec " << i << ":\n"
                             << spec.to_text() << report.describe();
    for (const runner::DifferentialRow& row : report.rows) {
      EXPECT_TRUE(row.ran) << row.label << " threw under spec "
                           << i << ": " << row.error << "\n"
                           << spec.to_text();
    }
  }
}

// Hand-picked worst cases that random sampling rarely concentrates on.
TEST(ChaosFuzz, AdversarialHandPickedScripts) {
  const char* kScripts[] = {
      // Everything at once, overlapping windows.
      "loss 0.35\n"
      "burst 0us..80ms good=0.05 bad=0.9 go-bad=0.2 go-good=0.1\n"
      "jitter p=0.8 0us..5ms\n"
      "dup p=0.9 extra=3 spread=2ms\n"
      "partition 20ms..60ms boundary=half cross=1\n"
      "crash M3 at=30ms\n"
      "crash M17 at=45ms\n",
      // Total partition for the entire horizon.
      "partition 0us..1s boundary=half cross=1\n",
      // Asymmetric per-link blackouts on many links.
      "link M0->M1 1\nlink M1->M0 1\nlink M2->M3 1\n"
      "link M5->M0 1\nlink M9->M2 1\n",
      // Extreme duplication with zero spread (same-tick duplicates).
      "dup p=1 extra=4 spread=0us\n",
  };
  std::size_t index = 0;
  for (const char* script : kScripts) {
    runner::ExperimentConfig base;
    base.group_size = 24;
    base.ucast_loss = 0.0;
    base.crash_probability = 0.0;
    base.seed = 0xC000 + index++;
    base.chaos_spec = script;
    const runner::DifferentialReport report = runner::run_differential(base);
    EXPECT_TRUE(report.ok()) << "divergence under hand-picked script:\n"
                             << script << report.describe();
  }
}

}  // namespace
}  // namespace gridbox

// Chaos spec parsing/serialization and ChaosSchedule runtime semantics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/ensure.h"
#include "src/net/chaos.h"
#include "src/net/fault_model.h"
#include "src/protocols/gossip/hier_gossip.h"
#include "src/runner/cli.h"
#include "tests/testing_world.h"

namespace gridbox {
namespace {

using net::ChaosDecision;
using net::ChaosSchedule;
using net::ChaosSpec;

// ---- spec parsing & serialization -----------------------------------------

TEST(ChaosSpec, EmptyTextParsesToEmptySpec) {
  const ChaosSpec spec = ChaosSpec::parse("");
  EXPECT_TRUE(spec.empty());
  EXPECT_FALSE(spec.affects_network());
  EXPECT_EQ(spec.to_text(), "");
}

TEST(ChaosSpec, CommentsAndBlankLinesAreIgnored) {
  const ChaosSpec spec = ChaosSpec::parse(
      "# a scenario\n"
      "\n"
      "loss 0.25  # iid base loss\n");
  ASSERT_TRUE(spec.base_loss.has_value());
  EXPECT_DOUBLE_EQ(*spec.base_loss, 0.25);
}

TEST(ChaosSpec, FullGrammarRoundTrips) {
  const std::string text =
      "loss 0.2\n"
      "burst 10000us..60000us good=0.05 bad=0.9 go-bad=0.1 go-good=0.3\n"
      "link M3->M7 1\n"
      "jitter p=0.5 0us..2000us\n"
      "dup p=0.25 extra=2 spread=500us\n"
      "partition 5000us..40000us boundary=half cross=0.95 within=0.1\n"
      "crash M5 at=20000us\n";
  const ChaosSpec spec = ChaosSpec::parse(text);
  EXPECT_EQ(spec.to_text(), text);
  EXPECT_EQ(ChaosSpec::parse(spec.to_text()), spec);
  EXPECT_TRUE(spec.affects_network());
  ASSERT_EQ(spec.bursts.size(), 1u);
  EXPECT_EQ(spec.bursts[0].from, SimTime::millis(10));
  ASSERT_EQ(spec.crashes.size(), 1u);
  EXPECT_EQ(spec.crashes[0].member, MemberId{5});
  EXPECT_EQ(spec.crashes[0].at, SimTime::millis(20));
}

TEST(ChaosSpec, TimeSuffixesNormalizeToMicros) {
  const ChaosSpec spec = ChaosSpec::parse("burst 10ms..1s good=0 bad=1 go-bad=0.5 go-good=0.5\n");
  ASSERT_EQ(spec.bursts.size(), 1u);
  EXPECT_EQ(spec.bursts[0].from, SimTime::micros(10'000));
  EXPECT_EQ(spec.bursts[0].to, SimTime::micros(1'000'000));
  // Canonical serialization is always micros.
  EXPECT_NE(spec.to_text().find("10000us..1000000us"), std::string::npos);
}

TEST(ChaosSpec, MalformedSpecsFailWithLineContext) {
  EXPECT_THROW((void)ChaosSpec::parse("loss 1.5\n"), PreconditionError);
  EXPECT_THROW((void)ChaosSpec::parse("loss\n"), PreconditionError);
  EXPECT_THROW((void)ChaosSpec::parse("warp 0.5\n"), PreconditionError);
  EXPECT_THROW((void)ChaosSpec::parse("crash X5 at=1ms\n"), PreconditionError);
  EXPECT_THROW((void)ChaosSpec::parse("burst 5ms..1ms good=0 bad=1 go-bad=0 go-good=0\n"),
               PreconditionError);
  EXPECT_THROW((void)ChaosSpec::parse("dup p=0.5 extra=0 spread=1ms\n"),
               PreconditionError);
  EXPECT_THROW((void)ChaosSpec::parse("jitter q=0.5 0us..1ms\n"),
               PreconditionError);
  try {
    (void)ChaosSpec::parse("loss 0.1\nloss nope\n");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ChaosSpec, RandomSpecsRoundTripExactly) {
  // Machine-generated probabilities are full-precision doubles; the spec's
  // canonical text must round-trip them bit-for-bit (fuzz replay depends on
  // the dumped text reproducing the exact run).
  Rng rng(2026);
  for (int i = 0; i < 200; ++i) {
    const ChaosSpec spec =
        net::random_chaos_spec(rng, 64, SimTime::millis(200));
    EXPECT_EQ(ChaosSpec::parse(spec.to_text()), spec) << spec.to_text();
  }
}

// ---- schedule runtime ------------------------------------------------------

ChaosSchedule make_schedule(const std::string& text, SimTime* clock,
                            std::uint64_t seed = 7,
                            std::size_t group_size = 16) {
  ChaosSchedule schedule(ChaosSpec::parse(text),
                         net::FaultModel{}, group_size,
                         Rng(seed));
  schedule.bind_clock([clock]() { return *clock; });
  return schedule;
}

TEST(ChaosSchedule, LinkLossIsDirectional) {
  SimTime clock = SimTime::zero();
  ChaosSchedule schedule = make_schedule("link M0->M1 1\n", &clock);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(schedule.on_send(MemberId{0}, MemberId{1}).drop);
    EXPECT_FALSE(schedule.on_send(MemberId{1}, MemberId{0}).drop);
    EXPECT_FALSE(schedule.on_send(MemberId{0}, MemberId{2}).drop);
  }
}

TEST(ChaosSchedule, PartitionEpochDropsCrossTrafficOnlyWhileActive) {
  SimTime clock = SimTime::zero();
  ChaosSchedule schedule = make_schedule(
      "partition 10ms..20ms boundary=half cross=1\n", &clock);
  // group_size 16: members 0..7 are side 0, 8..15 side 1.
  const MemberId lo{0};
  const MemberId hi{12};
  clock = SimTime::millis(5);  // before the epoch
  EXPECT_FALSE(schedule.on_send(lo, hi).drop);
  clock = SimTime::millis(15);  // inside
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(schedule.on_send(lo, hi).drop);
    EXPECT_TRUE(schedule.on_send(hi, lo).drop);
    EXPECT_FALSE(schedule.on_send(lo, MemberId{7}).drop);   // same side
    EXPECT_FALSE(schedule.on_send(hi, MemberId{15}).drop);  // same side
  }
  clock = SimTime::millis(20);  // window is [from, to)
  EXPECT_FALSE(schedule.on_send(lo, hi).drop);
}

TEST(ChaosSchedule, ExplicitPartitionBoundary) {
  SimTime clock = SimTime::millis(1);
  ChaosSchedule schedule =
      make_schedule("partition 0ms..10ms boundary=3 cross=1\n", &clock);
  EXPECT_TRUE(schedule.on_send(MemberId{2}, MemberId{3}).drop);
  EXPECT_FALSE(schedule.on_send(MemberId{0}, MemberId{2}).drop);
  EXPECT_FALSE(schedule.on_send(MemberId{3}, MemberId{9}).drop);
}

TEST(ChaosSchedule, GilbertElliottStartsGoodAndResetsPerEpoch) {
  // good never drops; the chain flips to bad after the first message and
  // stays there (go-good=0), so: first message in the epoch survives, every
  // later one drops — and re-entering the epoch resets to good.
  SimTime clock = SimTime::millis(5);
  ChaosSchedule schedule = make_schedule(
      "burst 0ms..10ms good=0 bad=1 go-bad=1 go-good=0\n"
      "burst 20ms..30ms good=0 bad=1 go-bad=1 go-good=0\n",
      &clock);
  EXPECT_FALSE(schedule.on_send(MemberId{0}, MemberId{1}).drop);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(schedule.on_send(MemberId{0}, MemberId{1}).drop);
  }
  clock = SimTime::millis(15);  // gap between epochs: no burst active
  EXPECT_FALSE(schedule.on_send(MemberId{0}, MemberId{1}).drop);
  clock = SimTime::millis(25);  // second epoch: fresh chain, good again
  EXPECT_FALSE(schedule.on_send(MemberId{0}, MemberId{1}).drop);
  EXPECT_TRUE(schedule.on_send(MemberId{0}, MemberId{1}).drop);
}

TEST(ChaosSchedule, JitterIsBoundedAndDupOffsetsNonNegative) {
  SimTime clock = SimTime::zero();
  ChaosSchedule schedule = make_schedule(
      "jitter p=1 1ms..2ms\ndup p=1 extra=2 spread=500us\n", &clock);
  for (int i = 0; i < 100; ++i) {
    const ChaosDecision d = schedule.on_send(MemberId{0}, MemberId{1});
    EXPECT_FALSE(d.drop);
    EXPECT_GE(d.extra_delay, SimTime::millis(1));
    EXPECT_LE(d.extra_delay, SimTime::millis(2));
    ASSERT_EQ(d.duplicate_delays.size(), 2u);
    for (const SimTime offset : d.duplicate_delays) {
      EXPECT_GE(offset, SimTime::zero());
      EXPECT_LE(offset, SimTime::micros(500));
    }
  }
}

TEST(ChaosSchedule, DecisionStreamsAreIndependent) {
  // Adding duplication (or jitter) to a spec must not perturb the drop
  // sequence: each decision kind draws from its own derived stream. This is
  // the property the metamorphic duplication test leans on.
  SimTime clock = SimTime::zero();
  ChaosSchedule plain = make_schedule("loss 0.3\n", &clock);
  ChaosSchedule with_dup = make_schedule(
      "loss 0.3\njitter p=0.5 0us..1ms\ndup p=1 extra=1 spread=0us\n", &clock);
  for (int i = 0; i < 2000; ++i) {
    const MemberId s{static_cast<MemberId::underlying>(i % 16)};
    const MemberId d{static_cast<MemberId::underlying>((i + 3) % 16)};
    EXPECT_EQ(plain.on_send(s, d).drop, with_dup.on_send(s, d).drop);
  }
}

TEST(ChaosSchedule, LossDirectiveReplacesBaseModel) {
  SimTime clock = SimTime::zero();
  // The base model is lossless, but the spec scripts loss 1.0: every send
  // drops.
  ChaosSchedule schedule = make_schedule("loss 1\n", &clock);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(schedule.on_send(MemberId{0}, MemberId{1}).drop);
  }
}

// ---- network & world integration ------------------------------------------

TEST(ChaosWorld, DuplicationIsCountedAndHarmless) {
  using protocols::gossip::GossipConfig;
  using protocols::gossip::HierGossipNode;
  testing::WorldOptions options;
  options.chaos = "dup p=1 extra=1 spread=200us\n";
  testing::World world(options);
  auto nodes = world.make_nodes<HierGossipNode>(GossipConfig{});
  world.start_all(nodes);
  world.simulator().run();

  EXPECT_GT(world.network().stats().messages_duplicated, 0u);
  for (const auto& node : nodes) {
    ASSERT_TRUE(node->finished());
    // Lossless + duplication: idempotent merges keep every estimate exact.
    EXPECT_EQ(node->outcome().estimate.count(), 16u);
  }
}

TEST(ChaosWorld, ScriptedCrashStopsTheMember) {
  using protocols::gossip::GossipConfig;
  using protocols::gossip::HierGossipNode;
  testing::WorldOptions options;
  options.chaos = "crash M3 at=1ms\n";
  testing::World world(options);
  auto nodes = world.make_nodes<HierGossipNode>(GossipConfig{});
  world.start_all(nodes);
  world.simulator().run();

  EXPECT_FALSE(world.group().is_alive(MemberId{3}));
  EXPECT_FALSE(nodes[3]->finished());
}

TEST(ChaosWorld, TotalPartitionSplitsCoverage) {
  using protocols::gossip::GossipConfig;
  using protocols::gossip::HierGossipNode;
  testing::WorldOptions options;
  options.group_size = 32;
  // Hard partition for the whole run: no estimate can cover both sides.
  options.chaos = "partition 0ms..10s boundary=half cross=1\n";
  testing::World world(options);
  auto nodes = world.make_nodes<HierGossipNode>(GossipConfig{});
  world.start_all(nodes);
  world.simulator().run();

  for (const auto& node : nodes) {
    ASSERT_TRUE(node->finished());
    EXPECT_LE(node->outcome().estimate.count(), 16u);
  }
}

TEST(ChaosCli, InlineAndInvalidSpecs) {
  using runner::parse_cli;
  const auto ok = parse_cli({"--chaos", "loss 0.2;crash M3 at=5ms"});
  ASSERT_TRUE(ok.options.has_value());
  const ChaosSpec spec = ChaosSpec::parse(ok.options->config.chaos_spec);
  ASSERT_TRUE(spec.base_loss.has_value());
  EXPECT_DOUBLE_EQ(*spec.base_loss, 0.2);
  ASSERT_EQ(spec.crashes.size(), 1u);

  const auto bad = parse_cli({"--chaos", "loss 2.0"});
  EXPECT_FALSE(bad.options.has_value());
  EXPECT_NE(bad.error.find("--chaos"), std::string::npos);

  const auto flags = parse_cli({"--no-invariants", "--differential"});
  ASSERT_TRUE(flags.options.has_value());
  EXPECT_FALSE(flags.options->config.check_invariants);
  EXPECT_TRUE(flags.options->differential);
}

}  // namespace
}  // namespace gridbox

#include "src/net/network.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/common/ensure.h"
#include "src/net/fault_model.h"
#include "src/net/latency_model.h"
#include "src/net/message.h"

namespace gridbox::net {
namespace {

class Recorder final : public Endpoint {
 public:
  void on_message(const Message& message) override {
    received.push_back(message);
  }
  std::vector<Message> received;
};

Message make_message(std::uint32_t from, std::uint32_t to,
                     std::vector<std::uint8_t> bytes = {1, 2, 3}) {
  return Message{MemberId{from}, MemberId{to}, Frame{bytes}};
}

TEST(Frame, EnforcesSizeBoundAtConstruction) {
  // Exactly the bound is a legal payload; one byte over is rejected at
  // construction, before the message can ever reach the wire.
  EXPECT_NO_THROW(Frame{std::vector<std::uint8_t>(kMaxPayloadBytes, 0)});
  EXPECT_THROW(Frame{std::vector<std::uint8_t>(kMaxPayloadBytes + 1, 0)},
               PreconditionError);
}

TEST(Frame, HoldsBytesInline) {
  const Frame f{{10, 20, 30}};
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], 10);
  EXPECT_EQ(f[2], 30);
  EXPECT_FALSE(f.empty());
  EXPECT_TRUE(Frame{}.empty());
}

TEST(Frame, TryAppendStopsAtCapacity) {
  Frame f;
  const std::uint8_t chunk[64] = {};
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(f.try_append(chunk, sizeof chunk));
  EXPECT_EQ(f.size(), kMaxPayloadBytes);
  EXPECT_FALSE(f.try_append(chunk, 1));  // full: refused, size unchanged
  EXPECT_EQ(f.size(), kMaxPayloadBytes);
}

TEST(Frame, ComparesByContents) {
  EXPECT_EQ((Frame{{1, 2}}), (Frame{{1, 2}}));
  EXPECT_FALSE((Frame{{1, 2}}) == (Frame{{1, 3}}));
  EXPECT_FALSE((Frame{{1, 2}}) == (Frame{{1, 2, 0}}));  // length counts
}

TEST(Message, IsTriviallyCopyable) {
  // The zero-allocation event path depends on messages being plain memcpy-able
  // values: no heap, no ownership, no surprises when events move in the slab.
  static_assert(std::is_trivially_copyable_v<Frame>);
  static_assert(std::is_trivially_copyable_v<Message>);
}

TEST(IndependentLoss, ZeroNeverDrops) {
  const FaultModel model = FaultModel::iid(0.0);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(model.drops(MemberId{0}, MemberId{1}, rng));
  }
}

TEST(IndependentLoss, OneAlwaysDrops) {
  const FaultModel model = FaultModel::iid(1.0);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(model.drops(MemberId{0}, MemberId{1}, rng));
  }
}

TEST(IndependentLoss, EmpiricalRateMatches) {
  const FaultModel model = FaultModel::iid(0.25);
  Rng rng(3);
  int drops = 0;
  constexpr int kTrials = 100'000;
  for (int i = 0; i < kTrials; ++i) {
    if (model.drops(MemberId{0}, MemberId{1}, rng)) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / kTrials, 0.25, 0.01);
}

TEST(IndependentLoss, RejectsOutOfRangeProbability) {
  EXPECT_THROW((void)FaultModel::iid(-0.1), PreconditionError);
  EXPECT_THROW((void)FaultModel::iid(1.1), PreconditionError);
}

TEST(PartitionLoss, CrossAndWithinRatesDiffer) {
  const FaultModel model = FaultModel::split_at(50, 0.0, 1.0);
  Rng rng(4);
  // Within partition (both < 50): never dropped (within = 0).
  EXPECT_FALSE(model.drops(MemberId{1}, MemberId{2}, rng));
  EXPECT_FALSE(model.drops(MemberId{60}, MemberId{70}, rng));
  // Across: always dropped (cross = 1).
  EXPECT_TRUE(model.drops(MemberId{1}, MemberId{60}, rng));
  EXPECT_TRUE(model.drops(MemberId{60}, MemberId{1}, rng));
}

TEST(PartitionLoss, EmpiricalCrossRate) {
  const FaultModel model = FaultModel::split_at(10, 0.1, 0.6);
  Rng rng(5);
  int within = 0;
  int cross = 0;
  constexpr int kTrials = 50'000;
  for (int i = 0; i < kTrials; ++i) {
    if (model.drops(MemberId{0}, MemberId{1}, rng)) ++within;
    if (model.drops(MemberId{0}, MemberId{20}, rng)) ++cross;
  }
  EXPECT_NEAR(static_cast<double>(within) / kTrials, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(cross) / kTrials, 0.6, 0.01);
}

// Draw parity: the simulator's byte-identity rests on each model consuming
// exactly the draws it always did. `rng` is compared against an untouched
// copy by their next raw() after the calls.
TEST(FaultModel, ZeroValueNeverDraws) {
  const FaultModel model;
  Rng rng(11);
  Rng untouched = rng;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(model.drops(MemberId{0}, MemberId{1}, rng));
  }
  EXPECT_EQ(rng.raw(), untouched.raw());
}

TEST(FaultModel, IidDrawsOncePerCall) {
  const FaultModel model = FaultModel::iid(0.25);
  Rng rng(12);
  Rng untouched = rng;
  for (int i = 0; i < 100; ++i) {
    (void)model.drops(MemberId{0}, MemberId{1}, rng);
    (void)untouched.raw();
    Rng probe = rng;
    Rng expected = untouched;
    ASSERT_EQ(probe.raw(), expected.raw()) << "call " << i;
  }
}

TEST(FaultModel, PartitionWithLosslessSidesDrawsOnlyForCrossSideMessages) {
  const FaultModel model = FaultModel::split_at(10, 0.0, 0.6);
  Rng rng(13);
  Rng untouched = rng;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(model.drops(MemberId{0}, MemberId{9}, rng));
    EXPECT_FALSE(model.drops(MemberId{10}, MemberId{19}, rng));
  }
  {
    Rng probe = rng;
    Rng expected = untouched;
    EXPECT_EQ(probe.raw(), expected.raw());
  }
  (void)model.drops(MemberId{0}, MemberId{10}, rng);
  (void)untouched.raw();
  EXPECT_EQ(rng.raw(), untouched.raw());
}

TEST(ConstantLatency, ReturnsConfiguredDelay) {
  ConstantLatency model(SimTime{123});
  Rng rng(7);
  EXPECT_EQ(model.delay(MemberId{0}, MemberId{1}, rng), SimTime{123});
}

TEST(UniformLatency, StaysInRange) {
  UniformLatency model(SimTime{10}, SimTime{20});
  Rng rng(8);
  for (int i = 0; i < 10'000; ++i) {
    const SimTime d = model.delay(MemberId{0}, MemberId{1}, rng);
    ASSERT_GE(d.ticks(), 10);
    ASSERT_LE(d.ticks(), 20);
  }
}

TEST(ExponentialLatency, RespectsBaseAndCap) {
  ExponentialLatency model(SimTime{100}, SimTime{50}, SimTime{200});
  Rng rng(9);
  for (int i = 0; i < 10'000; ++i) {
    const SimTime d = model.delay(MemberId{0}, MemberId{1}, rng);
    ASSERT_GE(d.ticks(), 100);
    ASSERT_LE(d.ticks(), 300);
  }
}

TEST(DistanceLatency, GrowsWithDistance) {
  const auto pos = [](MemberId m) {
    return m.value() == 0 ? Position{0.0, 0.0} : Position{3.0, 4.0};
  };
  DistanceLatency model(pos, SimTime{10}, SimTime{100});
  Rng rng(10);
  EXPECT_EQ(model.delay(MemberId{0}, MemberId{0}, rng), SimTime{10});
  // Distance 5 -> 10 + 500.
  EXPECT_EQ(model.delay(MemberId{0}, MemberId{1}, rng), SimTime{510});
}

class NetworkTest : public ::testing::Test {
 protected:
  void make_network(FaultModel faults, SimTime latency = SimTime{5}) {
    network_ = std::make_unique<SimNetwork>(
        simulator_, faults,
        std::make_unique<ConstantLatency>(latency), Rng{42});
  }

  sim::Simulator simulator_;
  std::unique_ptr<SimNetwork> network_;
};

TEST_F(NetworkTest, DeliversAfterLatency) {
  make_network(FaultModel{}, SimTime{7});
  Recorder rx;
  network_->attach(MemberId{1}, rx);
  network_->send(make_message(0, 1));
  simulator_.run();
  ASSERT_EQ(rx.received.size(), 1u);
  EXPECT_EQ(simulator_.now(), SimTime{7});
  EXPECT_EQ(rx.received[0].source, MemberId{0});
  EXPECT_EQ(network_->stats().messages_delivered, 1u);
}

TEST_F(NetworkTest, DropsByFaultModel) {
  make_network(FaultModel::iid(1.0));
  Recorder rx;
  network_->attach(MemberId{1}, rx);
  for (int i = 0; i < 10; ++i) network_->send(make_message(0, 1));
  simulator_.run();
  EXPECT_TRUE(rx.received.empty());
  EXPECT_EQ(network_->stats().messages_sent, 10u);
  EXPECT_EQ(network_->stats().messages_dropped, 10u);
  EXPECT_EQ(network_->stats().messages_delivered, 0u);
}

TEST_F(NetworkTest, UnattachedDestinationCountsDeadDest) {
  make_network(FaultModel{});
  network_->send(make_message(0, 9));
  simulator_.run();
  EXPECT_EQ(network_->stats().messages_dead_dest, 1u);
}

TEST_F(NetworkTest, DetachedEndpointMissesInFlightMessages) {
  make_network(FaultModel{});
  Recorder rx;
  network_->attach(MemberId{1}, rx);
  network_->send(make_message(0, 1));
  network_->detach(MemberId{1});
  simulator_.run();
  EXPECT_TRUE(rx.received.empty());
  EXPECT_EQ(network_->stats().messages_dead_dest, 1u);
}

TEST_F(NetworkTest, LivenessGateBlocksDeliveryAtArrivalTime) {
  make_network(FaultModel{});
  Recorder rx;
  bool alive = true;
  network_->attach(MemberId{1}, rx);
  network_->set_liveness([&alive](MemberId) { return alive; });
  network_->send(make_message(0, 1));
  // Crash strictly before the delivery event fires.
  simulator_.schedule_at(SimTime{1}, [&alive] { alive = false; });
  simulator_.run();
  EXPECT_TRUE(rx.received.empty());
  EXPECT_EQ(network_->stats().messages_dead_dest, 1u);
}

TEST_F(NetworkTest, SelfSendIsDelivered) {
  make_network(FaultModel{});
  Recorder rx;
  network_->attach(MemberId{3}, rx);
  network_->send(make_message(3, 3));
  simulator_.run();
  EXPECT_EQ(rx.received.size(), 1u);
}

TEST_F(NetworkTest, BytesAndDistanceAccounting) {
  make_network(FaultModel{});
  Recorder rx;
  network_->attach(MemberId{1}, rx);
  network_->set_distance([](MemberId, MemberId) { return 2.5; });
  network_->send(make_message(0, 1, {1, 2, 3, 4}));
  network_->send(make_message(0, 1, {1}));
  simulator_.run();
  EXPECT_EQ(network_->stats().bytes_sent, 5u);
  EXPECT_DOUBLE_EQ(network_->stats().link_distance_sum, 5.0);
}

TEST_F(NetworkTest, EmpiricalDeliveryRateTracksLossModel) {
  make_network(FaultModel::iid(0.3));
  Recorder rx;
  network_->attach(MemberId{1}, rx);
  constexpr int kSends = 20'000;
  for (int i = 0; i < kSends; ++i) network_->send(make_message(0, 1));
  simulator_.run();
  EXPECT_NEAR(network_->stats().delivery_rate(), 0.7, 0.02);
  EXPECT_EQ(rx.received.size(), network_->stats().messages_delivered);
}

}  // namespace
}  // namespace gridbox::net

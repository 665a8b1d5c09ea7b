// Service subsystem tests (ctest labels tier1 + service): the instance
// envelope's strict decoder, the InstanceMux demux discipline (unknown /
// retired / malformed frames are counted and dropped, never delivered,
// never a crash), the join/recover chaos grammar, the one-shot runners'
// churn rejection, and the streaming service engine on the simulator
// substrate — determinism, churn epoch boundaries, and the multi-instance
// lineage container.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/ensure.h"
#include "src/net/chaos.h"
#include "src/net/fault_model.h"
#include "src/obs/json.h"
#include "src/runner/experiment.h"
#include "src/service/envelope.h"
#include "src/service/mux.h"
#include "src/service/service.h"

namespace gridbox {
namespace {

using net::ChaosSpec;
using service::EnvelopeError;

// ---- envelope --------------------------------------------------------------

TEST(Envelope, WrapUnwrapRoundTripsPayloadAndInstanceId) {
  const net::Frame inner{1, 2, 3, 0xFF};
  const net::Frame outer = service::envelope_wrap(0xDEADBEEF, inner);
  ASSERT_EQ(outer.size(), service::kEnvelopeBytes + inner.size());

  std::uint32_t instance = 0;
  net::Frame unwrapped;
  ASSERT_EQ(service::envelope_unwrap(outer, instance, unwrapped),
            EnvelopeError::kOk);
  EXPECT_EQ(instance, 0xDEADBEEFu);
  ASSERT_EQ(unwrapped.size(), inner.size());
  EXPECT_EQ(std::memcmp(unwrapped.data(), inner.data(), inner.size()), 0);
}

TEST(Envelope, EmptyPayloadRoundTrips) {
  const net::Frame outer = service::envelope_wrap(7, net::Frame{});
  ASSERT_EQ(outer.size(), service::kEnvelopeBytes);
  std::uint32_t instance = 0;
  net::Frame inner{9, 9};  // must be overwritten
  ASSERT_EQ(service::envelope_unwrap(outer, instance, inner),
            EnvelopeError::kOk);
  EXPECT_EQ(instance, 7u);
  EXPECT_EQ(inner.size(), 0u);
}

TEST(Envelope, EveryHeaderFieldIsStrictlyValidated) {
  const net::Frame good = service::envelope_wrap(3, net::Frame{42});
  std::uint32_t instance = 99;
  net::Frame inner;

  // Too short: every prefix shorter than the header.
  for (std::size_t size = 0; size < service::kEnvelopeBytes; ++size) {
    const net::Frame prefix(good.data(), size);
    EXPECT_EQ(service::envelope_unwrap(prefix, instance, inner),
              EnvelopeError::kTooShort)
        << "size " << size;
  }

  const auto corrupt = [&](std::size_t offset, std::uint8_t value) {
    std::vector<std::uint8_t> bytes(good.data(), good.data() + good.size());
    bytes[offset] = value;
    return net::Frame(bytes);
  };
  EXPECT_EQ(service::envelope_unwrap(corrupt(0, 0x00), instance, inner),
            EnvelopeError::kBadMagic);
  EXPECT_EQ(service::envelope_unwrap(corrupt(1, 0x00), instance, inner),
            EnvelopeError::kBadMagic);
  EXPECT_EQ(service::envelope_unwrap(corrupt(2, 2), instance, inner),
            EnvelopeError::kBadVersion);
  EXPECT_EQ(service::envelope_unwrap(corrupt(3, 1), instance, inner),
            EnvelopeError::kBadReserved);

  // Failure leaves the out-parameters untouched.
  EXPECT_EQ(instance, 99u);
  EXPECT_EQ(inner.size(), 0u);

  for (const EnvelopeError e :
       {EnvelopeError::kOk, EnvelopeError::kTooShort, EnvelopeError::kBadMagic,
        EnvelopeError::kBadVersion, EnvelopeError::kBadReserved}) {
    EXPECT_FALSE(service::to_string(e).empty());
  }
}

// ---- mux demux discipline --------------------------------------------------

/// Synchronous loopback transport: send() delivers to the attached endpoint
/// immediately. Just enough raw transport for the mux to sit on.
class LoopTransport final : public net::Transport {
 public:
  void attach(MemberId id, net::Endpoint& endpoint) override {
    endpoints_[id.value()] = &endpoint;
  }
  void detach(MemberId id) override { endpoints_.erase(id.value()); }
  void send(net::Message message) override {
    ++stats_.messages_sent;
    const auto it = endpoints_.find(message.destination.value());
    if (it == endpoints_.end()) {
      ++stats_.messages_dropped;
      return;
    }
    ++stats_.messages_delivered;
    it->second->on_message(message);
  }
  [[nodiscard]] const net::NetworkStats& stats() const override {
    return stats_;
  }

 private:
  std::map<MemberId::underlying, net::Endpoint*> endpoints_;
  net::NetworkStats stats_;
};

struct RecordingEndpoint final : net::Endpoint {
  std::vector<net::Message> got;
  void on_message(const net::Message& message) override {
    got.push_back(message);
  }
};

TEST(InstanceMux, StrictDemuxCountsAndDropsWithoutDelivering) {
  LoopTransport raw;
  service::InstanceMux mux(
      {.group_size = 2, .transport_of = [&](MemberId) { return &raw; }});
  mux.attach_all();

  auto sender = mux.open_instance(0);
  RecordingEndpoint member0;
  sender->attach(MemberId{0}, member0);

  const net::Frame inner{1, 2, 3};
  const auto to_member0 = [&](const net::Frame& frame) {
    raw.send(net::Message{MemberId{1}, MemberId{0}, frame});
  };

  // Valid frame for the open instance: delivered, envelope stripped.
  to_member0(service::envelope_wrap(0, inner));
  ASSERT_EQ(member0.got.size(), 1u);
  EXPECT_EQ(member0.got[0].frame.size(), inner.size());
  EXPECT_EQ(mux.stats().delivered, 1u);

  // Unknown instance id (never opened): counted, dropped, no crash.
  to_member0(service::envelope_wrap(5, inner));
  EXPECT_EQ(mux.stats().unknown_instance, 1u);

  // Malformed envelopes: a bare unwrapped frame and a truncated header.
  to_member0(inner);
  to_member0(net::Frame{0x58, 0x4D});
  EXPECT_EQ(mux.stats().malformed_envelope, 2u);

  // Live instance, member without a route (a non-participant).
  auto sender1 = mux.open_instance(1);
  raw.send(net::Message{MemberId{0}, MemberId{1},
                        service::envelope_wrap(1, inner)});
  EXPECT_EQ(mux.stats().unrouted_member, 1u);

  // Retired instance: opened, since closed.
  mux.close_instance(0);
  to_member0(service::envelope_wrap(0, inner));
  EXPECT_EQ(mux.stats().retired_instance, 1u);

  // Sends through a closed instance's sender drop at the mux and never
  // reach the raw transport (the final-phase linger path).
  const std::uint64_t raw_sends = raw.stats().messages_sent;
  sender->send(net::Message{MemberId{0}, MemberId{0}, inner});
  EXPECT_EQ(mux.stats().closed_sends, 1u);
  EXPECT_EQ(raw.stats().messages_sent, raw_sends);

  // Nothing beyond the first valid frame was ever delivered.
  EXPECT_EQ(member0.got.size(), 1u);
  EXPECT_EQ(mux.stats().delivered, 1u);
  EXPECT_EQ(mux.instances_opened(), 2u);
  EXPECT_TRUE(mux.is_open(1));
  EXPECT_FALSE(mux.is_open(0));
  mux.detach_all();
  (void)sender1;
}

TEST(InstanceMux, SenderWrapsTheInstanceEnvelopeAndKeepsPerInstanceStats) {
  LoopTransport raw;
  service::InstanceMux mux(
      {.group_size = 2, .transport_of = [&](MemberId) { return &raw; }});
  mux.attach_all();

  auto sender0 = mux.open_instance(0);
  auto sender1 = mux.open_instance(1);
  RecordingEndpoint a0;
  RecordingEndpoint a1;
  sender0->attach(MemberId{1}, a0);
  sender1->attach(MemberId{1}, a1);

  sender0->send(net::Message{MemberId{0}, MemberId{1}, net::Frame{7}});
  sender0->send(net::Message{MemberId{0}, MemberId{1}, net::Frame{8}});
  sender1->send(net::Message{MemberId{0}, MemberId{1}, net::Frame{9}});

  // Each instance sees only its own traffic, with the envelope stripped.
  ASSERT_EQ(a0.got.size(), 2u);
  ASSERT_EQ(a1.got.size(), 1u);
  EXPECT_EQ(a0.got[0].frame.data()[0], 7);
  EXPECT_EQ(a1.got[0].frame.data()[0], 9);
  EXPECT_EQ(sender0->stats().messages_sent, 2u);
  EXPECT_EQ(sender1->stats().messages_sent, 1u);
  EXPECT_EQ(mux.stats().delivered, 3u);
  mux.detach_all();
}

// ---- join/recover grammar --------------------------------------------------

TEST(ChaosChurn, JoinRecoverParseAndRoundTripCanonically) {
  const std::string text =
      "loss 0.1\ncrash M3 at=30000us\njoin M7 at=60000us\n"
      "recover M3 at=200000us\n";
  const ChaosSpec spec = ChaosSpec::parse("loss 0.1\ncrash M3 at=30ms\n"
                                          "join M7 at=60ms\n"
                                          "recover M3 at=200ms\n");
  ASSERT_EQ(spec.joins.size(), 1u);
  EXPECT_EQ(spec.joins[0].member, MemberId{7});
  EXPECT_EQ(spec.joins[0].at, SimTime::millis(60));
  ASSERT_EQ(spec.recovers.size(), 1u);
  EXPECT_EQ(spec.recovers[0].member, MemberId{3});
  EXPECT_EQ(spec.recovers[0].at, SimTime::millis(200));
  EXPECT_TRUE(spec.has_churn());
  EXPECT_FALSE(spec.empty());
  EXPECT_EQ(spec.to_text(), text);
  EXPECT_EQ(ChaosSpec::parse(spec.to_text()), spec);
}

TEST(ChaosChurn, ChurnAloneDoesNotAffectTheNetwork) {
  const ChaosSpec spec = ChaosSpec::parse("join M1 at=5ms\n");
  EXPECT_TRUE(spec.has_churn());
  EXPECT_FALSE(spec.affects_network());
  EXPECT_FALSE(spec.empty());
  EXPECT_FALSE(ChaosSpec::parse("loss 0.1\n").has_churn());
}

TEST(ChaosChurn, MalformedChurnLinesFailWithLineContext) {
  EXPECT_THROW((void)ChaosSpec::parse("join X5 at=1ms\n"), PreconditionError);
  EXPECT_THROW((void)ChaosSpec::parse("join M5\n"), PreconditionError);
  EXPECT_THROW((void)ChaosSpec::parse("recover M5 at=\n"), PreconditionError);
  EXPECT_THROW((void)ChaosSpec::parse("recover at=1ms\n"), PreconditionError);
}

TEST(ChaosChurn, ChurnDirectivesPerturbNoRngStream) {
  // Scripted churn must not shift the drop pattern of an otherwise
  // identical spec — the metamorphic discipline the chaos layer guarantees
  // for every non-random directive.
  SimTime clock = SimTime::zero();
  net::ChaosSchedule plain(ChaosSpec::parse("loss 0.3\n"),
                           net::FaultModel{}, 16, Rng(7));
  net::ChaosSchedule churned(
      ChaosSpec::parse("loss 0.3\njoin M1 at=5ms\nrecover M2 at=9ms\n"),
      net::FaultModel{}, 16, Rng(7));
  plain.bind_clock([&] { return clock; });
  churned.bind_clock([&] { return clock; });
  for (int i = 0; i < 200; ++i) {
    clock = SimTime::micros(static_cast<SimTime::underlying>(i) * 100);
    const MemberId src{static_cast<MemberId::underlying>(i % 16)};
    const MemberId dst{static_cast<MemberId::underlying>((i + 3) % 16)};
    EXPECT_EQ(plain.on_send(src, dst).drop, churned.on_send(src, dst).drop)
        << "send " << i;
  }
}

TEST(ChaosChurn, OneShotRunnersRejectChurnSpecs) {
  runner::ExperimentConfig config;
  config.group_size = 16;
  config.chaos_spec = "join M1 at=5ms\n";
  EXPECT_THROW((void)runner::run_experiment(config), PreconditionError);
  config.chaos_spec = "recover M1 at=5ms\n";
  EXPECT_THROW((void)runner::run_experiment(config), PreconditionError);
}

// ---- the service engine on the simulator substrate -------------------------

[[nodiscard]] service::ServiceConfig small_service() {
  service::ServiceConfig sc;
  sc.experiment.group_size = 32;
  sc.experiment.seed = 11;
  sc.experiment.ucast_loss = 0.05;
  sc.experiment.crash_probability = 0.0;
  sc.experiment.audit = true;
  sc.experiment.gossip.round_duration = SimTime::millis(2);
  sc.instances = 6;
  sc.epoch_interval = SimTime::millis(5);
  sc.max_in_flight = 3;
  return sc;
}

TEST(ServiceEngine, StreamsInstancesAuditCleanWithBoundedWindow) {
  const service::ServiceResult result =
      service::run_service_experiment(small_service());
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.instances.size(), 6u);
  EXPECT_EQ(result.metrics.launched, 6u);
  EXPECT_EQ(result.metrics.completed, 6u);
  EXPECT_EQ(result.metrics.failed, 0u);
  // Window 3 against 6 epochs on a cadence faster than a run: the later
  // launches must have been deferred at their due time.
  EXPECT_GT(result.metrics.deferred, 0u);
  EXPECT_GT(result.metrics.instances_per_sec, 0.0);
  EXPECT_GE(result.metrics.p99_completion, result.metrics.p50_completion);
  EXPECT_GT(result.metrics.demux.delivered, 0u);
  EXPECT_EQ(result.metrics.demux.malformed_envelope, 0u);
  EXPECT_EQ(result.metrics.demux.unknown_instance, 0u);
  for (std::size_t i = 0; i < result.instances.size(); ++i) {
    const service::InstanceResult& inst = result.instances[i];
    EXPECT_EQ(inst.id, i);  // sorted by id
    EXPECT_TRUE(inst.completed) << "instance " << i;
    EXPECT_EQ(inst.participants, 32u);
    EXPECT_EQ(inst.measurement.audit_violations, 0u) << "instance " << i;
    EXPECT_EQ(inst.measurement.reconstruction_failures, 0u)
        << "instance " << i;
    EXPECT_EQ(inst.invariant_violations, 0u)
        << "instance " << i << ": " << inst.first_violation;
    EXPECT_GT(inst.network.messages_sent, 0u);
    EXPECT_GE(inst.completed_at, inst.launched_at);
  }
}

TEST(ServiceEngine, IdenticalConfigsProduceBitIdenticalStreams) {
  const service::ServiceResult a =
      service::run_service_experiment(small_service());
  const service::ServiceResult b =
      service::run_service_experiment(small_service());
  ASSERT_EQ(a.instances.size(), b.instances.size());
  EXPECT_EQ(a.elapsed, b.elapsed);
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(a.instances[i].measurement.true_value,
              b.instances[i].measurement.true_value)
        << "instance " << i;
    EXPECT_EQ(a.instances[i].measurement.mean_completeness,
              b.instances[i].measurement.mean_completeness);
    EXPECT_EQ(a.instances[i].completed_at, b.instances[i].completed_at);
    EXPECT_EQ(a.instances[i].network.messages_sent,
              b.instances[i].network.messages_sent);
  }
}

TEST(ServiceEngine, InstancesDrawIndependentWorlds) {
  // Different instances aggregate different votes: their true values are
  // derived from independent per-instance RNG worlds, not shared state.
  const service::ServiceResult result =
      service::run_service_experiment(small_service());
  ASSERT_GE(result.instances.size(), 2u);
  EXPECT_NE(result.instances[0].measurement.true_value,
            result.instances[1].measurement.true_value);
}

TEST(ServiceEngine, JoinersEnterAtTheNextEpochBoundary) {
  service::ServiceConfig sc;
  sc.experiment.group_size = 16;
  sc.experiment.seed = 3;
  sc.experiment.ucast_loss = 0.0;
  sc.experiment.crash_probability = 0.0;
  sc.experiment.audit = true;
  sc.experiment.gossip.round_duration = SimTime::millis(2);
  sc.experiment.chaos_spec = "join M3 at=15ms\n";
  sc.instances = 4;
  sc.epoch_interval = SimTime::millis(10);
  sc.max_in_flight = 4;

  const service::ServiceResult result = service::run_service_experiment(sc);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.instances.size(), 4u);
  // Epochs are due at 0/10/20/30 ms; M3 joins at 15 ms, so the first two
  // cohorts exclude it and the later ones include it.
  EXPECT_EQ(result.instances[0].participants, 15u);
  EXPECT_EQ(result.instances[1].participants, 15u);
  EXPECT_EQ(result.instances[2].participants, 16u);
  EXPECT_EQ(result.instances[3].participants, 16u);
  for (const service::InstanceResult& inst : result.instances) {
    EXPECT_EQ(inst.measurement.audit_violations, 0u);
    EXPECT_EQ(inst.invariant_violations, 0u) << inst.first_violation;
  }
}

TEST(ServiceEngine, RecoverReentersACrashedMemberAtAnEpochBoundary) {
  service::ServiceConfig sc;
  sc.experiment.group_size = 16;
  sc.experiment.seed = 5;
  sc.experiment.ucast_loss = 0.0;
  sc.experiment.crash_probability = 0.0;
  sc.experiment.audit = true;
  sc.experiment.gossip.round_duration = SimTime::millis(2);
  sc.experiment.chaos_spec = "crash M2 at=5ms\nrecover M2 at=25ms\n";
  sc.instances = 4;
  sc.epoch_interval = SimTime::millis(10);
  sc.max_in_flight = 4;

  const service::ServiceResult result = service::run_service_experiment(sc);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.instances.size(), 4u);
  // Cohorts at 0/10/20/30 ms: full, crashed, crashed, recovered.
  EXPECT_EQ(result.instances[0].participants, 16u);
  EXPECT_EQ(result.instances[1].participants, 15u);
  EXPECT_EQ(result.instances[2].participants, 15u);
  EXPECT_EQ(result.instances[3].participants, 16u);
}

TEST(ServiceEngine, DeferredLaunchesKeepTheirDueTimeCohort) {
  // Window 1 against a 5 ms cadence: epochs 1 and 2 (due at 5 and 10 ms)
  // wait behind epoch 0, which runs for tens of ms. M5 joins at 7 ms and M3
  // crashes at 12 ms while they wait; each keeps the cohort it had when
  // due — deferral timing, which differs between substrates, must not
  // change who participates.
  service::ServiceConfig sc;
  sc.experiment.group_size = 16;
  sc.experiment.seed = 9;
  sc.experiment.ucast_loss = 0.0;
  sc.experiment.crash_probability = 0.0;
  sc.experiment.audit = true;
  sc.experiment.gossip.round_duration = SimTime::millis(2);
  sc.experiment.chaos_spec = "join M5 at=7ms\ncrash M3 at=12ms\n";
  sc.instances = 3;
  sc.epoch_interval = SimTime::millis(5);
  sc.max_in_flight = 1;

  const service::ServiceResult result = service::run_service_experiment(sc);
  ASSERT_TRUE(result.clean());
  ASSERT_EQ(result.instances.size(), 3u);
  EXPECT_EQ(result.metrics.deferred, 2u);
  EXPECT_GT(result.instances[1].launched_at, SimTime::millis(12));
  // Due at 0 and 5 ms: M5 absent. Due at 10 ms: M5 in. M3 is in all three.
  EXPECT_EQ(result.instances[0].participants, 15u);
  EXPECT_EQ(result.instances[1].participants, 15u);
  EXPECT_EQ(result.instances[2].participants, 16u);
  // M3 crashed before epochs 1 and 2 launched: it never ran in them.
  EXPECT_EQ(result.instances[1].measurement.survivors, 14u);
  EXPECT_EQ(result.instances[2].measurement.survivors, 15u);
}

TEST(ServiceEngine, LineageCollectsOneDocumentPerInstance) {
  service::ServiceConfig sc = small_service();
  sc.instances = 2;
  sc.collect_lineage = true;
  const service::ServiceResult result = service::run_service_experiment(sc);
  ASSERT_TRUE(result.completed);
  for (const service::InstanceResult& inst : result.instances) {
    EXPECT_NE(inst.lineage_json.find("gridbox-lineage/1"), std::string::npos);
  }
  const std::string multi = service::lineage_multi_json(result.instances);
  EXPECT_NE(multi.find("gridbox-lineage-multi/1"), std::string::npos);
  EXPECT_NE(multi.find("\"id\":0"), std::string::npos);
  EXPECT_NE(multi.find("\"id\":1"), std::string::npos);
}

// Lineage reproduces every completed instance's measured completeness bit
// for bit, for every protocol, also when its cohort is smaller than N: the
// members an instance starts without are crashed to lineage as they are to
// measure_run. Hier-gossip completes every instance; the baselines are not
// fault-tolerant, so under loss or churn some of their instances time out,
// and a failed instance has no lineage.
TEST(ServiceEngine, LineageCompletenessMatchesEveryInstancesMeasurement) {
  for (const runner::ProtocolKind protocol :
       {runner::ProtocolKind::kHierGossip,
        runner::ProtocolKind::kFullyDistributed,
        runner::ProtocolKind::kCentralized,
        runner::ProtocolKind::kLeaderElection,
        runner::ProtocolKind::kCommittee}) {
    std::size_t with_lineage = 0;
    for (const char* chaos : {"", "join M7 at=12ms\n", "crash M3 at=3ms\n"}) {
      const std::string where =
          runner::to_string(protocol) + " chaos '" + chaos + "'";
      service::ServiceConfig sc = small_service();
      sc.experiment.protocol = protocol;
      sc.experiment.chaos_spec = chaos;
      sc.collect_lineage = true;
      const service::ServiceResult result =
          service::run_service_experiment(sc);
      if (protocol == runner::ProtocolKind::kHierGossip) {
        ASSERT_TRUE(result.completed) << where;
      }
      std::size_t smallest_cohort = sc.experiment.group_size;
      for (const service::InstanceResult& inst : result.instances) {
        smallest_cohort = std::min(smallest_cohort, inst.participants);
        ASSERT_EQ(inst.lineage_json.empty(), !inst.completed)
            << where << " instance " << inst.id;
        if (!inst.completed) continue;
        ++with_lineage;
        const obs::JsonValue doc = obs::json_parse(inst.lineage_json);
        const auto want_bp = static_cast<std::uint64_t>(
            inst.measurement.mean_completeness * 10'000.0 + 0.5);
        EXPECT_EQ(doc.number_or("completeness_bp", -1),
                  static_cast<double>(want_bp))
            << where << " instance " << inst.id;
        const obs::JsonValue* errors = doc.find("errors");
        ASSERT_NE(errors, nullptr);
        EXPECT_TRUE(errors->array.empty()) << where << " instance " << inst.id;
      }
      // The churn streams do run instances without the whole group.
      if (*chaos != '\0') {
        EXPECT_LT(smallest_cohort, sc.experiment.group_size) << where;
      }
    }
    EXPECT_GT(with_lineage, 0u) << runner::to_string(protocol);
  }
}

}  // namespace
}  // namespace gridbox

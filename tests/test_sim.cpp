#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/common/ensure.h"
#include "src/sim/event_queue.h"

namespace gridbox::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(SimTime{30}, [&] { fired.push_back(3); });
  q.push(SimTime{10}, [&] { fired.push_back(1); });
  q.push(SimTime{20}, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInSchedulingOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.push(SimTime{5}, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().fire();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, EqualTimesStayFifoAcrossInterleavedPushAndPop) {
  // Regression for the vector+push_heap/pop_heap rewrite: popping must not
  // disturb the (time, sequence) order of the events left in the heap, even
  // when pushes and pops interleave at a single timestamp.
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 4; ++i) {
    q.push(SimTime{5}, [&fired, i] { fired.push_back(i); });
  }
  q.pop().fire();  // 0
  for (int i = 4; i < 8; ++i) {
    q.push(SimTime{5}, [&fired, i] { fired.push_back(i); });
  }
  q.pop().fire();  // 1
  q.push(SimTime{5}, [&fired] { fired.push_back(8); });
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.pop(), PreconditionError);
}

TEST(EventQueue, NextTimePeeksEarliest) {
  EventQueue q;
  q.push(SimTime{42}, [] {});
  q.push(SimTime{7}, [] {});
  EXPECT_EQ(q.next_time(), SimTime{7});
}

TEST(EventQueue, PeakSizeTracksHighWatermark) {
  EventQueue q;
  EXPECT_EQ(q.peak_size(), 0u);
  q.push(SimTime{1}, [] {});
  q.push(SimTime{2}, [] {});
  q.push(SimTime{3}, [] {});
  (void)q.pop();
  (void)q.pop();
  q.push(SimTime{4}, [] {});
  EXPECT_EQ(q.peak_size(), 3u);  // never reached 4 after the pops
}

class CountingSink final : public FrameSink {
 public:
  void deliver_frame(const net::Message& message) override {
    delivered.push_back(message);
  }
  std::vector<net::Message> delivered;
};

TEST(EventQueue, DeliverFrameEventCarriesTheMessage) {
  EventQueue q;
  CountingSink sink;
  net::Message m{MemberId{1}, MemberId{2}, net::Frame{{0xAB, 0xCD}}};
  q.push(SimTime{3}, DeliverFrame{m, &sink});
  q.pop().fire();
  ASSERT_EQ(sink.delivered.size(), 1u);
  EXPECT_EQ(sink.delivered[0].source, MemberId{1});
  EXPECT_EQ(sink.delivered[0].destination, MemberId{2});
  EXPECT_EQ(sink.delivered[0].frame, (net::Frame{{0xAB, 0xCD}}));
}

class CountingTimer final : public TimerTarget {
 public:
  bool on_timer(std::uint32_t timer_id) override {
    ids.push_back(timer_id);
    return keep_going;
  }
  bool keep_going = true;
  std::vector<std::uint32_t> ids;
};

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<SimTime::underlying> times;
  sim.schedule_at(SimTime{100}, [&] { times.push_back(sim.now().ticks()); });
  sim.schedule_at(SimTime{50}, [&] { times.push_back(sim.now().ticks()); });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(times, (std::vector<SimTime::underlying>{50, 100}));
  EXPECT_EQ(sim.now(), SimTime{100});
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime fired = SimTime::zero();
  sim.schedule_at(SimTime{10}, [&] {
    sim.schedule_after(SimTime{5}, [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, SimTime{15});
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(SimTime{100}, [&] {
    sim.schedule_at(SimTime{10}, [&] { fired = true; });  // in the past
  });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), SimTime{100});
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_after(SimTime{-1}, [] {}), PreconditionError);
}

TEST(Simulator, RunUntilStopsAtDeadlineInclusive) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(SimTime{10}, [&] { fired.push_back(10); });
  sim.schedule_at(SimTime{20}, [&] { fired.push_back(20); });
  sim.schedule_at(SimTime{30}, [&] { fired.push_back(30); });
  sim.run_until(SimTime{20});
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  EXPECT_EQ(sim.now(), SimTime{20});
  sim.run();
  EXPECT_EQ(fired.size(), 3u);
}

TEST(Simulator, RunUntilAdvancesClockToDeadlineWhenIdle) {
  Simulator sim;
  sim.run_until(SimTime{500});
  EXPECT_EQ(sim.now(), SimTime{500});
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(SimTime{1}, [&] { ++count; });
  sim.schedule_at(SimTime{2}, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, PeriodicRunsUntilTickReturnsFalse) {
  Simulator sim;
  int ticks = 0;
  sim.schedule_periodic(SimTime{0}, SimTime{10}, [&] { return ++ticks < 5; });
  sim.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(sim.now(), SimTime{40});
}

TEST(Simulator, PeriodicIntervalMustBePositive) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_periodic(SimTime{0}, SimTime{0}, [] { return false; }),
               PreconditionError);
}

TEST(Simulator, EventLimitCatchesRunawayLoops) {
  Simulator sim;
  sim.set_event_limit(100);
  sim.schedule_periodic(SimTime{0}, SimTime{1}, [] { return true; });
  EXPECT_THROW(sim.run(), InvariantError);
}

TEST(Simulator, EventLimitIsLifetimeAcrossRunUntilCalls) {
  // Regression: the runaway-reschedule guard used to reset per call, so a
  // caller stepping time forward with repeated run_until() never tripped it.
  Simulator sim;
  sim.set_event_limit(100);
  sim.schedule_periodic(SimTime{0}, SimTime{1}, [] { return true; });
  EXPECT_NO_THROW(sim.run_until(SimTime{50}));
  EXPECT_THROW(sim.run_until(SimTime{1000}), InvariantError);
}

TEST(Simulator, EventLimitIsLifetimeAcrossMixedRunCalls) {
  Simulator sim;
  sim.set_event_limit(100);
  sim.schedule_periodic(SimTime{0}, SimTime{1}, [] { return true; });
  EXPECT_NO_THROW(sim.run_until(SimTime{80}));
  EXPECT_THROW(sim.run(), InvariantError);  // 81st..101st event trips it
}

TEST(Simulator, EventLimitHoldsForACallerDrivingStep) {
  // The service loop drives step() itself; the guard must trip there too.
  // The iteration cap keeps a missing guard from hanging the test.
  Simulator sim;
  sim.set_event_limit(10);
  sim.schedule_periodic(SimTime{0}, SimTime{1}, [] { return true; });
  EXPECT_THROW(
      {
        for (int i = 0; i < 100 && sim.step(); ++i) {
        }
      },
      InvariantError);
}

TEST(Simulator, EventsExecutedAccumulates) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(SimTime{i}, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, TypedPeriodicTimerReArmsWhileTrue) {
  Simulator sim;
  class FiveTicks final : public TimerTarget {
   public:
    explicit FiveTicks(Simulator& s) : sim_(&s) {}
    bool on_timer(std::uint32_t) override {
      times.push_back(sim_->now().ticks());
      return times.size() < 5;
    }
    Simulator* sim_;
    std::vector<SimTime::underlying> times;
  } target(sim);
  sim.schedule_periodic(SimTime{0}, SimTime{10}, target);
  sim.run();
  EXPECT_EQ(target.times,
            (std::vector<SimTime::underlying>{0, 10, 20, 30, 40}));
  EXPECT_EQ(sim.now(), SimTime{40});
}

TEST(Simulator, TypedPeriodicTimerPassesTimerId) {
  Simulator sim;
  CountingTimer target;
  target.keep_going = false;
  sim.schedule_periodic(SimTime{5}, SimTime{10}, target, 7);
  sim.run();
  EXPECT_EQ(target.ids, (std::vector<std::uint32_t>{7}));
}

TEST(Simulator, TypedOneShotTimerIgnoresReturnValue) {
  Simulator sim;
  CountingTimer target;
  target.keep_going = true;  // would re-arm if periodic; must not here
  sim.schedule_timer_at(SimTime{3}, target, 1);
  sim.run();
  EXPECT_EQ(target.ids.size(), 1u);
  EXPECT_EQ(sim.now(), SimTime{3});
}

TEST(Simulator, TypedAndClosurePeriodicTimersTickIdentically) {
  // The typed timer must be a drop-in for the closure Repeater: same tick
  // times, same executed-event count, so traces do not shift.
  const auto run_closure = [] {
    Simulator sim;
    std::vector<SimTime::underlying> times;
    sim.schedule_periodic(SimTime{2}, SimTime{7}, [&] {
      times.push_back(sim.now().ticks());
      return times.size() < 4;
    });
    sim.run();
    return std::pair{times, sim.events_executed()};
  };
  const auto run_typed = [] {
    Simulator sim;
    class T final : public TimerTarget {
     public:
      explicit T(Simulator& s) : sim_(&s) {}
      bool on_timer(std::uint32_t) override {
        times.push_back(sim_->now().ticks());
        return times.size() < 4;
      }
      Simulator* sim_;
      std::vector<SimTime::underlying> times;
    } target(sim);
    sim.schedule_periodic(SimTime{2}, SimTime{7}, target);
    sim.run();
    return std::pair{target.times, sim.events_executed()};
  };
  EXPECT_EQ(run_closure(), run_typed());
}

TEST(Simulator, ScheduleFrameAfterDeliversToSink) {
  Simulator sim;
  CountingSink sink;
  const net::Message m{MemberId{4}, MemberId{5}, net::Frame{{9, 9, 9}}};
  sim.schedule_at(SimTime{10}, [&] {
    sim.schedule_frame_after(SimTime{6}, m, sink);
  });
  sim.run();
  ASSERT_EQ(sink.delivered.size(), 1u);
  EXPECT_EQ(sim.now(), SimTime{16});
  EXPECT_EQ(sink.delivered[0].frame.size(), 3u);
}

TEST(Simulator, InterleavedSchedulingIsDeterministic) {
  // Two structurally identical simulations must produce identical traces.
  const auto trace = [] {
    Simulator sim;
    std::vector<int> fired;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(SimTime{i % 7}, [&fired, i] { fired.push_back(i); });
    }
    sim.run();
    return fired;
  };
  EXPECT_EQ(trace(), trace());
}

}  // namespace
}  // namespace gridbox::sim

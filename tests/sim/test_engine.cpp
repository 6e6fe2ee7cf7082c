#include "ttsim/sim/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace ttsim::sim {
namespace {

TEST(Fiber, RunsToCompletion) {
  int x = 0;
  Fiber f([&] { x = 42; });
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> trace;
  Fiber* self = nullptr;
  Fiber f([&] {
    trace.push_back(1);
    self->yield();
    trace.push_back(3);
  });
  self = &f;
  f.resume();
  trace.push_back(2);
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

TEST(Fiber, ExceptionPropagatesViaRethrow) {
  Fiber f([] { throw std::runtime_error("boom"); });
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_THROW(f.rethrow_if_failed(), std::runtime_error);
}

TEST(Fiber, CurrentTracksExecution) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* observed = reinterpret_cast<Fiber*>(1);
  Fiber f([&] { observed = Fiber::current(); });
  f.resume();
  EXPECT_EQ(observed, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, CancelAfterYieldsRunsStackDestructors) {
  struct Guard {
    int* count;
    ~Guard() { ++*count; }
  };
  int destroyed = 0;
  int yields = 0;
  Fiber* self = nullptr;
  Fiber f([&] {
    Guard outer{&destroyed};
    for (;;) {
      Guard inner{&destroyed};
      self->yield();
      ++yields;
    }
  });
  self = &f;
  for (int i = 0; i < 5; ++i) f.resume();
  EXPECT_EQ(yields, 4);
  EXPECT_EQ(destroyed, 4);  // one `inner` per completed loop iteration
  f.cancel();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(destroyed, 6);  // the parked `inner` and `outer`
  EXPECT_NO_THROW(f.rethrow_if_failed());
}

TEST(Fiber, ExceptionAfterYieldsPropagatesViaRethrow) {
  Fiber* self = nullptr;
  Fiber f([&] {
    self->yield();
    self->yield();
    self->yield();
    throw std::runtime_error("late boom");
  });
  self = &f;
  for (int i = 0; i < 3; ++i) {
    f.resume();
    EXPECT_FALSE(f.finished());
  }
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(Fiber::current(), nullptr);
  try {
    f.rethrow_if_failed();
    FAIL() << "expected the fiber's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "late boom");
  }
}

TEST(Fiber, NestedResumeYieldsBackToResumingFiber) {
  std::vector<std::string> trace;
  Fiber* inner_self = nullptr;
  Fiber inner([&] {
    trace.push_back("inner1");
    inner_self->yield();
    trace.push_back("inner2");
    inner_self->yield();
    trace.push_back("inner3");
  });
  inner_self = &inner;
  Fiber* outer_self = nullptr;
  Fiber outer([&] {
    trace.push_back("outer1");
    inner.resume();
    EXPECT_EQ(Fiber::current(), outer_self);
    trace.push_back("outer2");
    outer_self->yield();
    trace.push_back("outer3");
    inner.resume();
    EXPECT_EQ(Fiber::current(), outer_self);
    trace.push_back("outer4");
  });
  outer_self = &outer;
  outer.resume();
  EXPECT_EQ(Fiber::current(), nullptr);
  trace.push_back("sched");
  inner.resume();  // the same fiber, now resumed from the scheduler
  EXPECT_EQ(Fiber::current(), nullptr);
  trace.push_back("sched2");
  outer.resume();
  EXPECT_TRUE(outer.finished());
  EXPECT_TRUE(inner.finished());
  EXPECT_EQ(trace, (std::vector<std::string>{"outer1", "inner1", "outer2", "sched",
                                             "inner2", "sched2", "outer3",
                                             "inner3", "outer4"}));
}

TEST(Fiber, RoundRobinInterleavingIsDeterministic) {
  constexpr int kFibers = 64;  // 128 KiB stack each
  constexpr int kYields = 1000;
  const auto run_once = [] {
    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(kFibers) * (kYields + 1));
    std::vector<std::unique_ptr<Fiber>> fibers;
    for (int id = 0; id < kFibers; ++id) {
      fibers.push_back(std::make_unique<Fiber>([&order, id] {
        for (int i = 0; i < kYields; ++i) {
          order.push_back(id);
          Fiber::current()->yield();
        }
        order.push_back(id);
      }));
    }
    for (int round = 0; round <= kYields; ++round) {
      for (auto& f : fibers) f->resume();
    }
    for (auto& f : fibers) EXPECT_TRUE(f->finished());
    return order;
  };
  const std::vector<int> first = run_once();
  ASSERT_EQ(first.size(), static_cast<std::size_t>(kFibers) * (kYields + 1));
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i], static_cast<int>(i % kFibers)) << "at step " << i;
  }
  EXPECT_EQ(run_once(), first);
}

TEST(Engine, TimeAdvancesWithDelay) {
  Engine e;
  SimTime seen = -1;
  e.spawn("p", [&] {
    e.delay(100);
    seen = e.now();
  });
  e.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(e.now(), 100);
}

TEST(Engine, ProcessesInterleaveByTime) {
  Engine e;
  std::vector<std::string> order;
  e.spawn("a", [&] {
    e.delay(10);
    order.push_back("a10");
    e.delay(20);  // wakes at 30
    order.push_back("a30");
  });
  e.spawn("b", [&] {
    e.delay(15);
    order.push_back("b15");
    e.delay(20);  // wakes at 35
    order.push_back("b35");
  });
  e.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a10", "b15", "a30", "b35"}));
}

TEST(Engine, EqualTimesOrderedByInsertion) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.spawn("p" + std::to_string(i), [&, i] {
      e.delay(50);
      order.push_back(i);
    });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, CallbacksFireAtScheduledTime) {
  Engine e;
  std::vector<SimTime> fired;
  e.schedule_at(30, [&] { fired.push_back(e.now()); });
  e.schedule_at(10, [&] { fired.push_back(e.now()); });
  e.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 30}));
}

TEST(Engine, SchedulePastThrows) {
  Engine e;
  e.schedule_at(100, [] {});
  e.run();
  EXPECT_EQ(e.now(), 100);
  EXPECT_THROW(e.schedule_at(50, [] {}), CheckError);
}

TEST(Engine, DelayZeroIsAllowed) {
  Engine e;
  int steps = 0;
  e.spawn("p", [&] {
    for (int i = 0; i < 3; ++i) {
      e.delay(0);
      ++steps;
    }
  });
  e.run();
  EXPECT_EQ(steps, 3);
  EXPECT_EQ(e.now(), 0);
}

TEST(Engine, NegativeDelayThrows) {
  Engine e;
  e.spawn("p", [&] { e.delay(-1); });
  EXPECT_THROW(e.run(), CheckError);
}

TEST(Engine, ExceptionInProcessSurfacesFromRun) {
  Engine e;
  e.spawn("bad", [] { throw std::runtime_error("kernel fault"); });
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int ticks = 0;
  e.spawn("p", [&] {
    for (int i = 0; i < 10; ++i) {
      e.delay(100);
      ++ticks;
    }
  });
  EXPECT_FALSE(e.run_until(450));
  EXPECT_EQ(ticks, 4);
  EXPECT_EQ(e.now(), 450);
  EXPECT_TRUE(e.run_until(2000));
  EXPECT_EQ(ticks, 10);
}

TEST(Engine, RunUntilAdvancesIdleClock) {
  Engine e;
  EXPECT_TRUE(e.run_until(5000));
  EXPECT_EQ(e.now(), 5000);
}

TEST(Engine, DeterministicEventCount) {
  auto run_once = [] {
    Engine e;
    for (int i = 0; i < 8; ++i) {
      e.spawn("p", [&e] {
        for (int j = 0; j < 20; ++j) e.delay(7);
      });
    }
    e.run();
    return e.events_processed();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, SpawnFromInsideProcess) {
  Engine e;
  std::vector<int> order;
  e.spawn("parent", [&] {
    e.delay(10);
    order.push_back(1);
    e.spawn("child", [&] {
      order.push_back(2);
      e.delay(5);
      order.push_back(3);
    });
    e.delay(1);
    order.push_back(4);  // at t=11, child wakes at 15
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
}

TEST(Engine, CurrentOutsideProcessThrows) {
  Engine e;
  EXPECT_THROW(e.current(), CheckError);
}

}  // namespace
}  // namespace ttsim::sim

// Unit tests for the simulation core: event queue, coroutine tasks, RNG,
// statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace npr {
namespace {

TEST(ClockDomain, IxpCycleIs5ns) {
  EXPECT_EQ(kIxpClock.ToTime(1), 5000);
  EXPECT_EQ(kIxpClock.ToTime(200), 1000 * kPsPerNs);
  EXPECT_DOUBLE_EQ(kIxpClock.FrequencyHz(), 200e6);
}

TEST(ClockDomain, PentiumIs733MHz) {
  EXPECT_NEAR(kPentiumClock.FrequencyHz(), 733e6, 1e6);
}

TEST(ClockDomain, RoundTripCycles) {
  for (int64_t cycles : {1, 7, 100, 123456}) {
    EXPECT_EQ(kIxpClock.ToCycles(kIxpClock.ToTime(cycles)), cycles);
  }
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(300, [&] { order.push_back(3); });
  q.Schedule(100, [&] { order.push_back(1); });
  q.Schedule(200, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 300);
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(50, [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueue, RunUntilAdvancesTimeWithoutEvents) {
  EventQueue q;
  q.RunUntil(5000);
  EXPECT_EQ(q.now(), 5000);
  EXPECT_EQ(q.events_run(), 0u);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int ran = 0;
  q.Schedule(100, [&] { ++ran; });
  q.Schedule(200, [&] { ++ran; });
  q.RunUntil(150);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.now(), 150);
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      q.ScheduleIn(10, chain);
    }
  };
  q.ScheduleIn(10, chain);
  q.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.now(), 50);
}

TEST(EventQueue, ClearDropsWithoutRunning) {
  EventQueue q;
  int ran = 0;
  q.Schedule(10, [&] { ++ran; });
  q.Clear();
  q.RunAll();
  EXPECT_EQ(ran, 0);
}

TEST(EventQueue, RunOneReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.RunOne());
}

// The wheel buckets time in 4096 ps ticks; same-instant FIFO must hold for
// instants that share a bucket with earlier *and* later neighbours.
TEST(EventQueue, SameInstantFifoSharingBucketWithNeighbours) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(8192 + 10, [&] { order.push_back(100); });  // same bucket, earlier t
  for (int i = 0; i < 5; ++i) {
    q.Schedule(8192 + 50, [&order, i] { order.push_back(i); });
  }
  q.Schedule(8192 + 90, [&] { order.push_back(200); });  // same bucket, later t
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{100, 0, 1, 2, 3, 4, 200}));
}

TEST(EventQueue, ScheduleAtNowFromCallbackRunsBeforeLaterEvents) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(100, [&] {
    order.push_back(1);
    // Same instant, scheduled mid-dispatch: must run after the current
    // event (FIFO) but before anything later.
    q.Schedule(q.now(), [&] { order.push_back(2); });
  });
  q.Schedule(100, [&] { order.push_back(3); });
  q.Schedule(101, [&] { order.push_back(4); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 4}));
  EXPECT_EQ(q.now(), 101);
}

TEST(EventQueue, ScheduleIntoDrainedWindowKeepsOrder) {
  EventQueue q;
  std::vector<SimTime> times;
  q.Schedule(200, [&] { times.push_back(q.now()); });
  q.RunUntil(150);  // drains the bucket holding 200 into the ready list
  q.Schedule(160, [&] { times.push_back(q.now()); });
  q.RunAll();
  EXPECT_EQ(times, (std::vector<SimTime>{160, 200}));
}

// A bucket keeps its nodes in arrival order: an earlier instant scheduled
// after a later one into the same 4096 ps bucket must still run first.
TEST(EventQueue, EarlierInstantScheduledLaterIntoBucketRunsFirst) {
  EventQueue q;
  std::vector<SimTime> times;
  q.Schedule(8192 + 90, [&] { times.push_back(q.now()); });
  q.Schedule(8192 + 10, [&] { times.push_back(q.now()); });
  q.RunAll();
  EXPECT_EQ(times, (std::vector<SimTime>{8192 + 10, 8192 + 90}));

  // 300 events over 100 instants of one bucket, in shuffled order: the
  // bucket drains in (time, scheduling order), through multi-level merges.
  const SimTime base = 4 * 4096;
  std::vector<std::pair<SimTime, int>> scheduled;
  std::vector<std::pair<SimTime, int>> ran;
  Rng rng(7);
  for (int id = 0; id < 300; ++id) {
    const SimTime t = base + static_cast<SimTime>(rng.Uniform(100)) * 40;
    scheduled.emplace_back(t, id);
    q.Schedule(t, [&ran, &q, id] { ran.emplace_back(q.now(), id); });
  }
  q.RunAll();
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(ran, scheduled);
}

// A node waiting in the heap moves into its bucket behind fresh nodes
// scheduled there after the wheel's span slid over it; at a tie in time it
// still runs first, because it was scheduled first.
TEST(EventQueue, CascadedNodeRunsBeforeLaterScheduledTie) {
  constexpr SimTime kWindow = SimTime{1} << 22;  // the wheel's span: 1024 x 4096 ps
  EventQueue q;
  std::vector<int> order;
  q.Schedule(kWindow + 100, [&] { order.push_back(2); });  // one span out: the heap
  q.Schedule(kWindow - 4096, [&] {
    // The span now reaches kWindow: both go straight into the bucket the
    // waiting node moves into.
    order.push_back(0);
    q.Schedule(kWindow + 50, [&] { order.push_back(1); });
    q.Schedule(kWindow + 100, [&] { order.push_back(3); });
  });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// Regression test for pull-before-scan: an event waiting in the heap that
// the span has just reached must run before a later event that a callback
// schedules straight into the wheel once the span covers both.
TEST(EventQueue, WindowCrossingCascadesBeforeFreshLevel0Events) {
  constexpr SimTime kWindow = SimTime{1} << 22;  // the wheel's span: 1024 x 4096 ps
  EventQueue q;
  std::vector<int> order;
  // Past the span while the cursor is at tick 0: waits in the heap.
  q.Schedule(kWindow + 2 * 4096, [&] { order.push_back(1); });
  // Its callback schedules, straight into the wheel, a time *later* than
  // the waiting event.
  q.Schedule(kWindow - 4096, [&] {
    order.push_back(0);
    q.Schedule(kWindow + 3 * 4096, [&] { order.push_back(2); });
  });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.now(), kWindow + 3 * 4096);
}

// Times on both sides of the wheel's span (2^22 ps from tick 0) and of
// 2^32 and 2^42 ps: each goes into the wheel or waits in the heap, and
// fires at its own time.
TEST(EventQueue, BoundaryCrossingsRunAtExactTimes) {
  const std::vector<SimTime> deltas = {
      1,
      4096,
      (SimTime{1} << 22) - 1, (SimTime{1} << 22), (SimTime{1} << 22) + 1,
      (SimTime{1} << 32) - 1, (SimTime{1} << 32), (SimTime{1} << 32) + 1,
      (SimTime{1} << 42) - 1, (SimTime{1} << 42), (SimTime{1} << 42) + 1,
      (SimTime{3} << 42) + 12345,
  };
  EventQueue q;
  std::vector<SimTime> fired;
  for (SimTime t : deltas) {
    q.Schedule(t, [&fired, &q] { fired.push_back(q.now()); });
  }
  q.RunAll();
  EXPECT_EQ(fired, deltas);  // already ascending; each fires at its own t
}

// The span slides with the cursor. (a) With the cursor in a lap's last slot,
// the next lap's ticks sit in the slots below it, so the scan must wrap;
// kWheelSlots - 1 ticks ahead is the span's last tick, kWheelSlots ahead
// the heap's first. (b) A lone event 1 s out is reached by jumping an empty
// wheel to the heap's top, and the near events its callback schedules run
// after it, in order.
TEST(EventQueue, SlidingSpanWrapsLapsAndJumpsEmptyWheelToHeap) {
  constexpr SimTime kTick = 4096;
  constexpr SimTime kWheelSlots = 1024;
  EventQueue q;
  std::vector<std::pair<SimTime, int>> ran;
  auto record = [&ran, &q](int id) { return [&ran, &q, id] { ran.emplace_back(q.now(), id); }; };
  const SimTime cursor = (kWheelSlots - 1) * kTick;  // the lap's last slot
  q.Schedule((kWheelSlots - 2) * kTick + 7, [&] {
    // Draining tick 1022 left the cursor at tick 1023, slot 1023.
    q.Schedule(cursor + kWheelSlots * kTick, record(5));        // heap
    q.Schedule(cursor + (kWheelSlots - 1) * kTick, record(4));  // slot 1022
    q.Schedule(cursor + 2 * kTick + 1, record(3));              // slot 1
    q.Schedule(cursor + kTick + 9, record(2));                  // slot 0
    q.Schedule(cursor + kTick + 3, record(1));                  // slot 0
  });
  q.RunAll();
  EXPECT_EQ(ran, (std::vector<std::pair<SimTime, int>>{
                     {cursor + kTick + 3, 1},
                     {cursor + kTick + 9, 2},
                     {cursor + 2 * kTick + 1, 3},
                     {cursor + (kWheelSlots - 1) * kTick, 4},
                     {cursor + kWheelSlots * kTick, 5},
                 }));

  ran.clear();
  const SimTime far = q.now() + kPsPerSec + 123;
  q.Schedule(far, [&] {
    ran.emplace_back(q.now(), 0);
    q.Schedule(q.now() + 3 * kTick, record(3));
    q.Schedule(q.now(), record(1));
    q.Schedule(q.now() + 1, record(2));
  });
  EXPECT_EQ(q.RunAll(), 4u);
  EXPECT_EQ(ran, (std::vector<std::pair<SimTime, int>>{
                     {far, 0}, {far, 1}, {far + 1, 2}, {far + 3 * kTick, 3}}));
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, RunAllReportsTruncation) {
  EventQueue q;
  // Self-perpetuating chain: two pending at all times.
  struct Chain {
    EventQueue* q;
    static void Tick(void* self) {
      Chain* c = static_cast<Chain*>(self);
      c->q->ScheduleRaw(c->q->now() + 10, &Chain::Tick, c);
      c->q->ScheduleRaw(c->q->now() + 20, &Chain::Tick, c);
    }
  };
  Chain chain{&q};
  q.ScheduleRaw(10, &Chain::Tick, &chain);
  const uint64_t ran = q.RunAll(1000);
  EXPECT_EQ(ran, 1000u);
  EXPECT_GT(q.pending(), 0u);
  q.Clear();
  EXPECT_EQ(q.pending(), 0u);
}

struct ResumeProbe {
  struct promise_type {
    ResumeProbe get_return_object() {
      return {std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() {}
  };
  std::coroutine_handle<promise_type> handle;
};

struct ResumeAt {
  EventQueue* q;
  SimTime t;
  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) { q->ScheduleResume(t, h); }
  void await_resume() {}
};

ResumeProbe ResumeTwice(EventQueue* q, std::vector<SimTime>* seen) {
  co_await ResumeAt{q, 5000};
  seen->push_back(q->now());
  co_await ResumeAt{q, 2 * kPsPerMs};  // past the wheel's span: the heap
  seen->push_back(q->now());
}

TEST(EventQueue, ScheduleResumeDrivesCoroutine) {
  EventQueue q;
  std::vector<SimTime> seen;
  ResumeProbe probe = ResumeTwice(&q, &seen);
  probe.handle.resume();  // run to the first co_await
  q.RunAll();
  EXPECT_EQ(seen, (std::vector<SimTime>{5000, 2 * kPsPerMs}));
  probe.handle.destroy();
}

// A callable larger than EventFn's inline buffer and owning a shared_ptr is
// boxed on the heap, built straight into its node, and destroyed exactly
// once: after it runs, when Clear() drops it, or with the queue.
TEST(EventQueue, BoxedCallableIsDestroyedExactlyOnce) {
  auto token = std::make_shared<int>(0);
  auto make = [&token] {
    return [token, pad = std::array<int64_t, 3>{}] { *token += 1 + static_cast<int>(pad[0]); };
  };
  static_assert(sizeof(make()) > EventFn::kInlineBytes);
  {
    EventQueue q;
    q.Schedule(10, make());
    EXPECT_EQ(token.use_count(), 2);
    q.RunAll();
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(token.use_count(), 1);

    q.ScheduleIn(10, make());
    q.Schedule(q.now() + 20, EventFn(make()));  // an EventFn is moved in once
    EXPECT_EQ(token.use_count(), 3);
    q.Clear();
    EXPECT_EQ(token.use_count(), 1);

    q.Schedule(q.now() + 10, make());
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 1);
}

ResumeProbe FireOnResume(const std::function<void(int)>* fire, int id) {
  (*fire)(id);
  co_return;
}

// Randomized schedule shapes vs a trivially-correct oracle: execution order
// must equal a stable sort by time of the events in scheduling order (that
// is what "deterministic FIFO within an instant" means), and every event
// must fire exactly at its scheduled time. The queue advances in random
// RunUntil steps with events also scheduled between steps, and each event
// is one of the four callable shapes: fn-ptr + context, coroutine resume,
// inline lambda, and boxed lambda.
TEST(EventQueue, RandomizedOrderMatchesStableSortOracle) {
  const std::vector<SimTime> horizons = {0,     1,          4096,        50'000,
                                         1 << 22, 1 << 24, SimTime{1} << 32,
                                         SimTime{1} << 43};
  Rng rng(0xC0FFEE);
  EventQueue q;
  std::vector<std::pair<SimTime, int>> scheduled;  // (t, id) in schedule order
  std::vector<std::pair<SimTime, int>> ran;
  int next_id = 0;
  std::function<void()> schedule_random;
  const std::function<void(int)> fire = [&](int id) {
    ran.emplace_back(q.now(), id);
    // Occasionally breed follow-up events (tests mid-dispatch inserts).
    if (rng.Chance(0.2) && next_id < 4000) {
      schedule_random();
      schedule_random();
    }
  };
  struct RawEvent {
    const std::function<void(int)>* fire;
    int id;
  };
  std::deque<RawEvent> raw_events;  // stable addresses for the contexts
  std::vector<std::coroutine_handle<>> coroutines;
  schedule_random = [&] {
    const SimTime horizon = horizons[rng.Uniform(horizons.size())];
    const SimTime t = q.now() + static_cast<SimTime>(rng.Uniform(static_cast<uint64_t>(horizon) + 1));
    const int id = next_id++;
    scheduled.emplace_back(t, id);
    switch (rng.Uniform(4)) {
      case 0:
        raw_events.push_back(RawEvent{&fire, id});
        q.ScheduleRaw(
            t,
            [](void* e) {
              const RawEvent* raw = static_cast<const RawEvent*>(e);
              (*raw->fire)(raw->id);
            },
            &raw_events.back());
        break;
      case 1:
        coroutines.push_back(FireOnResume(&fire, id).handle);
        q.ScheduleResume(t, coroutines.back());
        break;
      case 2:
        q.Schedule(t, [&fire, id] { fire(id); });
        break;
      default: {
        auto boxed = [&fire, id, pad = std::array<int64_t, 3>{}] {
          fire(id + static_cast<int>(pad[0]));
        };
        static_assert(sizeof(boxed) > EventFn::kInlineBytes);
        q.Schedule(t, std::move(boxed));
        break;
      }
    }
  };
  for (int i = 0; i < 500; ++i) {
    schedule_random();
  }
  const std::vector<SimTime> steps = {0, 1, 4096, 50'000, 1 << 22, SimTime{1} << 32,
                                      SimTime{1} << 43};
  while (q.pending() > 0) {
    q.RunUntil(q.now() + steps[rng.Uniform(steps.size())]);
    if (rng.Chance(0.3) && next_id < 4000) {
      schedule_random();  // from outside any callback, at or after now()
    }
  }
  for (std::coroutine_handle<> h : coroutines) {
    h.destroy();
  }
  ASSERT_EQ(ran.size(), scheduled.size());
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(ran, scheduled);
}

// --- Task ---

Task Counting(int* counter, std::suspend_always* /*unused*/) {
  ++*counter;
  co_return;
}

TEST(Task, StartsSuspended) {
  int counter = 0;
  Task t = Counting(&counter, nullptr);
  EXPECT_EQ(counter, 0);
  t.Start();
  EXPECT_EQ(counter, 1);
  EXPECT_TRUE(t.done());
}

TEST(Task, DestroyWithoutStartIsSafe) {
  int counter = 0;
  {
    Task t = Counting(&counter, nullptr);
    (void)t;
  }
  EXPECT_EQ(counter, 0);
}

TEST(Task, MoveTransfersOwnership) {
  int counter = 0;
  Task a = Counting(&counter, nullptr);
  Task b = std::move(a);
  EXPECT_FALSE(a.valid());
  b.Start();
  EXPECT_EQ(counter, 1);
}

// --- Rng ---

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next();
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(13), 13u);
  }
}

TEST(Rng, UniformCoversAllValues) {
  Rng rng(7);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) {
    counts[rng.Uniform(8)]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);  // expectation 1000, loose 20% bound
    EXPECT_LT(c, 1200);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  EXPECT_FALSE(rng.Chance(0.0));
  EXPECT_TRUE(rng.Chance(1.0));
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(100.0);
  }
  EXPECT_NEAR(sum / n, 100.0, 3.0);
}

TEST(Zipf, SkewFavorsLowRanks) {
  Rng rng(5);
  ZipfDistribution zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) {
    counts[zipf.Sample(rng)]++;
  }
  EXPECT_GT(counts[0], counts[50] * 5);
  EXPECT_GT(counts[0], 0);
}

TEST(Zipf, ZeroSkewIsUniform) {
  Rng rng(5);
  ZipfDistribution zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    counts[zipf.Sample(rng)]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

// --- stats ---

TEST(Accumulator, Moments) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    acc.Add(v);
  }
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 0.01);  // sample stddev
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.stddev(), 0.0);
}

TEST(Histogram, TracksExtremaAndMean) {
  Histogram h;
  h.Add(1);
  h.Add(100);
  h.Add(10000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 10000u);
  EXPECT_NEAR(h.mean(), 3367.0, 1.0);
}

TEST(Histogram, PercentileMonotone) {
  Histogram h;
  for (uint64_t i = 1; i <= 1000; ++i) {
    h.Add(i);
  }
  EXPECT_LE(h.Percentile(10), h.Percentile(50));
  EXPECT_LE(h.Percentile(50), h.Percentile(99));
}

TEST(RateMeter, ComputesRate) {
  RateMeter m;
  m.StartWindow(0);
  // 1000 events spread over 1 ms => 1M events/s.
  for (int i = 1; i <= 1000; ++i) {
    m.Record(static_cast<SimTime>(i) * kPsPerUs);
  }
  EXPECT_NEAR(m.RatePerSec(), 1e6, 1e4);
}

TEST(RateMeter, EmptyWindowIsZero) {
  RateMeter m;
  m.StartWindow(0);
  EXPECT_EQ(m.RatePerSec(), 0.0);
}

}  // namespace
}  // namespace npr

// Event-core microbench: raw events/sec through EventQueue for the event
// shapes the simulator actually produces. No router model — this isolates
// the scheduling engine so regressions in the timing wheel, the node pool,
// or EventFn dispatch show up without model noise. The headline rows carry
// throughput floors as bounds, and a rate below its floor fails the bench.

#include <chrono>
#include <coroutine>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/event_queue.h"
#include "src/sim/shard_group.h"
#include "src/sim/time.h"

namespace npr {
namespace {

double Secs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Hot path of the simulator: N self-rescheduling "clocks" at fixed small
// deltas (MicroEngine 5000 ps, Pentium 1364 ps, bus 15152 ps), every event
// landing in the level-0 window.
double SelfRescheduling(uint64_t target_events) {
  EventQueue q;
  struct Clock {
    EventQueue* q;
    SimTime period;
    uint64_t remaining;
    static void Tick(void* self) {
      Clock* c = static_cast<Clock*>(self);
      if (c->remaining-- > 0) {
        c->q->ScheduleRaw(c->q->now() + c->period, &Clock::Tick, c);
      }
    }
  };
  Clock clocks[] = {
      {&q, 5000, target_events / 3},
      {&q, 1364, target_events / 3},
      {&q, 15152, target_events / 3},
  };
  const auto t0 = std::chrono::steady_clock::now();
  for (Clock& c : clocks) {
    q.ScheduleRaw(c.period, &Clock::Tick, &c);
  }
  q.RunAll(target_events + 16);
  const double rate = static_cast<double>(q.events_run()) / Secs(t0);
  bench::RecordEvents(q.events_run());
  return rate;
}

// Same-instant fan-out: bursts of events at one timestamp (DMA completions
// fanning out to contexts), exercising bucket sort + FIFO-order dispatch.
double SameInstantFanout(uint64_t target_events) {
  EventQueue q;
  static constexpr int kBurst = 32;
  struct Fan {
    EventQueue* q;
    uint64_t remaining;
    static void Burst(void* self) {
      Fan* f = static_cast<Fan*>(self);
      if (f->remaining < kBurst) {
        return;
      }
      f->remaining -= kBurst;
      const SimTime t = f->q->now() + 5000;
      for (int i = 0; i < kBurst - 1; ++i) {
        f->q->ScheduleRaw(t, [](void*) {}, nullptr);
      }
      f->q->ScheduleRaw(t, &Fan::Burst, f);
    }
  };
  Fan fan{&q, target_events};
  const auto t0 = std::chrono::steady_clock::now();
  q.ScheduleRaw(0, &Fan::Burst, &fan);
  q.RunAll(target_events + 16);
  const double rate = static_cast<double>(q.events_run()) / Secs(t0);
  bench::RecordEvents(q.events_run());
  return rate;
}

// Coroutine resume path: what Compute/Read/Write awaitables do.
struct CoroTask {
  struct promise_type {
    CoroTask get_return_object() {
      return {std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() {}
  };
  std::coroutine_handle<promise_type> handle;
};

struct DelayAwaiter {
  EventQueue* q;
  SimTime dt;
  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) { q->ScheduleResumeIn(dt, h); }
  void await_resume() {}
};

CoroTask CoroLoop(EventQueue* q, uint64_t iterations) {
  for (uint64_t i = 0; i < iterations; ++i) {
    co_await DelayAwaiter{q, 5000};
  }
}

double CoroutineResume(uint64_t target_events) {
  EventQueue q;
  CoroTask task = CoroLoop(&q, target_events);
  const auto t0 = std::chrono::steady_clock::now();
  task.handle.resume();  // runs to the first co_await
  q.RunAll(target_events + 16);
  const double rate = static_cast<double>(q.events_run()) / Secs(t0);
  bench::RecordEvents(q.events_run());
  task.handle.destroy();
  return rate;
}

// Far-future churn: timer-style events far beyond the wheels' span mixed
// with hot-path ticks, forcing heap traffic plus cascades on every window
// and rotation boundary.
double FarFutureChurn(uint64_t target_events) {
  EventQueue q;
  struct Timer {
    EventQueue* q;
    uint64_t remaining;
    SimTime stride;
    static void Fire(void* self) {
      Timer* t = static_cast<Timer*>(self);
      if (t->remaining-- > 0) {
        t->q->ScheduleRaw(t->q->now() + t->stride, &Timer::Fire, t);
      }
    }
  };
  Timer timers[] = {
      {&q, target_events / 4, 5000},                   // level 0
      {&q, target_events / 4, 6 * kPsPerUs},           // level 1
      {&q, target_events / 4, 6 * kPsPerMs},           // level 2
      {&q, target_events / 4, 5 * kPsPerSec},          // far heap
  };
  const auto t0 = std::chrono::steady_clock::now();
  for (Timer& t : timers) {
    q.ScheduleRaw(t.stride, &Timer::Fire, &t);
  }
  q.RunAll(target_events + 16);
  const double rate = static_cast<double>(q.events_run()) / Secs(t0);
  bench::RecordEvents(q.events_run());
  return rate;
}

// Sharded engines: one hot-path clock per shard, windowed by a ShardGroup
// with an idle hub and a 4 us lookahead window (the cluster's fabric
// latency). No model, no cross-shard traffic — what's measured is raw
// per-shard event dispatch plus the window barrier and worker-pool cost.
// With threads == shards and enough cores the aggregate rate should scale
// near-linearly; the (x8, 1 thread) row isolates pure windowing overhead.
double ShardedEngines(int shards, int threads, uint64_t target_events) {
  EventQueue hub;
  std::vector<std::unique_ptr<EventQueue>> engines;
  std::vector<EventQueue*> ptrs;
  for (int i = 0; i < shards; ++i) {
    engines.push_back(std::make_unique<EventQueue>());
    ptrs.push_back(engines.back().get());
  }
  struct Clock {
    EventQueue* q;
    SimTime period;
    uint64_t remaining;
    static void Tick(void* self) {
      Clock* c = static_cast<Clock*>(self);
      if (c->remaining-- > 0) {
        c->q->ScheduleRaw(c->q->now() + c->period, &Clock::Tick, c);
      }
    }
  };
  const uint64_t per_shard = target_events / static_cast<uint64_t>(shards);
  std::vector<Clock> clocks;
  clocks.reserve(engines.size());
  for (auto& q : engines) {
    clocks.push_back({q.get(), 5000, per_shard});
  }
  ShardGroup group(&hub, ptrs, 4 * kPsPerUs, threads);
  const auto t0 = std::chrono::steady_clock::now();
  for (Clock& c : clocks) {
    c.q->ScheduleRaw(c.period, &Clock::Tick, &c);
  }
  group.RunUntil(static_cast<SimTime>(per_shard + 2) * 5000);
  const double rate = static_cast<double>(group.events_run()) / Secs(t0);
  bench::RecordEvents(group.events_run());
  return rate;
}

}  // namespace
}  // namespace npr

int main() {
  using namespace npr;
  using namespace npr::bench;
  constexpr uint64_t kEvents = 6'000'000;

  Title("Event core — millions of events/sec by event shape");
  RowHeader();
  // Floors are ~1/3 of the development-box rates (docs/perf.md): room for
  // slower CI hosts, yet a regression to the old priority-queue core lands
  // well below them. The multi-thread aggregates depend on the host's cores.
  Row("self-rescheduling fixed deltas (hot path)", 0, SelfRescheduling(kEvents) / 1e6, "Mev",
      AtLeast(15.0));
  Row("same-instant fan-out bursts of 32", 0, SameInstantFanout(kEvents) / 1e6, "Mev",
      AtLeast(15.0));
  Row("coroutine suspend/resume", 0, CoroutineResume(kEvents / 2) / 1e6, "Mev", AtLeast(15.0));
  Row("mixed wheel levels + far-future heap", 0, FarFutureChurn(kEvents) / 1e6, "Mev",
      AtLeast(8.0));
  Row("sharded engines x1 aggregate", 0, ShardedEngines(1, 1, kEvents) / 1e6, "Mev",
      AtLeast(12.0));
  Row("sharded engines x2 aggregate", 0, ShardedEngines(2, 2, kEvents) / 1e6, "Mev");
  Row("sharded engines x4 aggregate", 0, ShardedEngines(4, 4, kEvents) / 1e6, "Mev");
  Row("sharded engines x8 aggregate", 0, ShardedEngines(8, 8, kEvents) / 1e6, "Mev");
  Row("sharded engines x8, 1 thread", 0, ShardedEngines(8, 1, kEvents) / 1e6, "Mev",
      AtLeast(10.0));
  Note("no paper counterpart (column shows 0): these are implementation");
  Note("throughput floors, held as bounds on the rows.");
  Note("sharded rows: hot-path clocks behind a 4 us lookahead window; xN runs");
  Note("N shards on N threads, the last row isolates barrier overhead at t=1.");
  return bench::EmitJson("sim_core");
}

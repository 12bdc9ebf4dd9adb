// Discrete-event simulation engine.
//
// A single EventQueue instance drives one simulated router (all clock
// domains share the picosecond time base). Events scheduled for the same
// instant run in scheduling order (stable FIFO), which keeps runs
// deterministic and reproducible.
//
// The queue is one timing wheel of 1024 buckets of 4096 ps over pooled,
// intrusively-linked event nodes, plus a (time, seq) min-heap. The wheel's
// span slides with its cursor: it always covers the next 1024 ticks
// (~4.2 us), and a node due later waits in the heap until the span reaches
// it. Nearly every event in the simulator lands a fixed small delta ahead of
// now (5000 ps MicroEngine ticks, 1364 ps Pentium ticks, bus-cycle
// multiples), so scheduling and dispatch are O(1) with no heap allocation on
// the hot path: the callback (an EventFn) is constructed once, inside the
// 64-byte node that runs it. Same-instant FIFO order is preserved by
// per-event sequence numbers. Each bucket keeps its nodes in the order they
// arrived, which is (time, seq) order unless a node lands before the
// bucket's tail; such a bucket is flagged and sorted in place when drained.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/event_fn.h"
#include "src/sim/time.h"

namespace npr {

class EventQueue {
 public:
  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Current simulation time. Monotonically non-decreasing.
  SimTime now() const { return now_; }

  // Schedules `f` to run at absolute time `t`. `t` must be >= now(). `f` is
  // anything EventFn accepts; it is constructed directly in the pooled node
  // that runs it (an EventFn argument is moved in once). Inline: the wheel
  // fast path (the next ~4.2 us, i.e. nearly every event the simulator
  // schedules) is a pool pop plus one list append.
  template <typename F>
  void Schedule(SimTime t, F&& f) {
    EventNode* n = NextFree();
    n->fn.Emplace(std::forward<F>(f));
    assert(n->fn && "cannot schedule an empty callback");
    Link(n, t);
  }

  // Schedules `f` to run `dt` picoseconds from now.
  template <typename F>
  void ScheduleIn(SimTime dt, F&& f) {
    Schedule(now_ + dt, std::forward<F>(f));
  }

  // Fast path for the most common event shape: a plain function pointer plus
  // context, bypassing EventFn's type erasure entirely.
  void ScheduleRaw(SimTime t, void (*fn)(void*), void* ctx) {
    EventNode* n = NextFree();
    n->fn.EmplaceRaw(fn, ctx);
    Link(n, t);
  }

  // Fast path for coroutine resumption: resumes `h` at time `t`. This is how
  // Compute/Read/Write awaitables get back on the processor they model.
  void ScheduleResume(SimTime t, std::coroutine_handle<> h) {
    EventNode* n = NextFree();
    n->fn.EmplaceResume(h);
    Link(n, t);
  }
  void ScheduleResumeIn(SimTime dt, std::coroutine_handle<> h) { ScheduleResume(now_ + dt, h); }

  // Runs the single earliest pending event, advancing now() to its time.
  // Returns false (and leaves now() unchanged) when no events are pending.
  bool RunOne();

  // Runs every event with time <= `t`, then sets now() to `t`.
  void RunUntil(SimTime t);

  // Runs every event in the next `dt` picoseconds.
  void RunFor(SimTime dt) { RunUntil(now_ + dt); }

  // Drains all pending events regardless of time. Intended for tests.
  // `max_events` guards against runaway self-rescheduling loops; hitting it
  // is reported (NPR_ERROR + events still pending) rather than masked.
  // Returns the number of events run.
  uint64_t RunAll(uint64_t max_events = 100'000'000);

  // Number of not-yet-executed events.
  size_t pending() const { return size_; }

  // Drops all pending events without running them (used at teardown).
  void Clear();

  // Total number of events executed since construction.
  uint64_t events_run() const { return events_run_; }

 private:
  // One pooled event. Exactly one cache line: nodes never move once
  // allocated (lists and the heap hold pointers), and the callback is
  // written once, into the node's EventFn, by the Schedule* call that takes
  // the node from the pool.
  struct EventNode {
    SimTime t = 0;
    uint64_t seq = 0;
    EventNode* next = nullptr;
    EventFn fn;
  };
  static_assert(sizeof(EventNode) == 64, "an event node is one cache line");

  // Buckets are 4096 ps (~4.1 ns, just under one 5 ns IXP cycle) so
  // consecutive MicroEngine ticks land in consecutive buckets. The wheel's
  // 1024 buckets span ~4.2 us ahead of the cursor; anything further out
  // (wire backlogs, OSPF hellos, fault epochs) waits in the heap.
  static constexpr int kTickShift = 12;
  static constexpr int kWheelBits = 10;
  static constexpr int kWheelSlots = 1 << kWheelBits;
  static constexpr int kBitmapWords = kWheelSlots / 64;
  static constexpr int64_t kSlotMask = kWheelSlots - 1;
  static constexpr int kChunkNodes = 512;

  // Execution order: time, then scheduling order.
  static bool Before(const EventNode* a, const EventNode* b) {
    return a->t < b->t || (a->t == b->t && a->seq < b->seq);
  }
  struct FarLater {
    bool operator()(const EventNode* a, const EventNode* b) const { return Before(b, a); }
  };

  static int64_t TickOf(SimTime t) { return t >> kTickShift; }

  // The pool's head node, left on the free list until Link takes it, so a
  // callable whose construction throws leaks nothing.
  EventNode* NextFree() {
    if (free_ == nullptr) [[unlikely]] {
      return RefillPool();
    }
    return free_;
  }
  // Takes NextFree() (its callback already written) off the pool and files
  // it under time `t`.
  void Link(EventNode* n, SimTime t) {
    assert(n == free_);
    assert(t >= now_ && "cannot schedule an event in the past");
    free_ = n->next;
    n->t = t;
    n->seq = next_seq_++;
    ++size_;
    // One compare bounds both ends of the span: a tick the cursor has
    // already passed wraps to a huge unsigned distance.
    const int64_t tick = TickOf(t);
    if (static_cast<uint64_t>(tick - next_tick_) < kWheelSlots) [[likely]] {
      PushSlot(static_cast<int>(tick & kSlotMask), n);
    } else {
      InsertNode(n);
    }
  }
  // Grows the node pool by one chunk; returns the new free-list head.
  EventNode* RefillPool();
  void FreeNode(EventNode* n);
  // Files a node outside the span: into the ready list if its tick is
  // before the cursor, else into the heap.
  void InsertNode(EventNode* n);
  // Appends `n` to a slot. A slot points at its tail, whose `next` closes
  // the circle back to the head, so append and drain are O(1). A slot whose
  // new node sorts before the old tail is flagged unsorted.
  void PushSlot(int idx, EventNode* n) {
    EventNode* tail = slots_[idx];
    if (tail == nullptr) {
      n->next = n;
      bitmap_[idx >> 6] |= uint64_t{1} << (idx & 63);
      summary_ |= uint32_t{1} << (idx >> 6);
    } else {
      n->next = tail->next;
      tail->next = n;
      if (Before(n, tail)) [[unlikely]] {
        unsorted_[idx >> 6] |= uint64_t{1} << (idx & 63);
      }
    }
    slots_[idx] = n;
  }
  // Unlinks a slot's circle; returns its head as a null-terminated list.
  EventNode* TakeSlot(int idx);
  // First occupied slot at or after `from`, or -1.
  int FindSetFrom(int from) const;
  void DrainSlot(int idx);
  // Sorts a null-terminated list on (t, seq), in place.
  static EventNode* SortList(EventNode* head);
  static EventNode* MergeLists(EventNode* a, EventNode* b);
  // Refills ready_ with the next due bucket, moving heap nodes into the
  // wheel as its span reaches them. Returns false when nothing is pending.
  bool Advance();

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_run_ = 0;
  size_t size_ = 0;

  // Drained events waiting to run, sorted by (t, seq). All have ticks
  // before the cursor; a callback scheduling there inserts here.
  EventNode* ready_head_ = nullptr;
  // First tick not yet drained (the wheel cursor). The span is
  // [next_tick_, next_tick_ + kWheelSlots); tick k lives in slot k & kSlotMask.
  int64_t next_tick_ = 0;

  // Each slot points at the tail of its circular list (nullptr if empty).
  EventNode* slots_[kWheelSlots] = {};
  uint64_t bitmap_[kBitmapWords] = {};
  // Bit w set iff bitmap_[w] != 0: one load decides where the next
  // occupied slot is instead of walking all 16 bitmap words.
  uint32_t summary_ = 0;
  // Slots whose list is not in (t, seq) order: a node moved in from the heap
  // landed behind fresh ones, or an earlier instant of the same bucket was
  // scheduled after a later one.
  uint64_t unsorted_[kBitmapWords] = {};
  std::vector<EventNode*> far_;  // min-heap on (t, seq): ticks past the span

  std::vector<std::unique_ptr<EventNode[]>> chunks_;
  EventNode* free_ = nullptr;
};

}  // namespace npr

#endif  // SRC_SIM_EVENT_QUEUE_H_

#include "src/sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "src/sim/log.h"

namespace npr {

EventQueue::EventQueue() = default;

// Chunks own the nodes; any still-pending boxed callbacks are released by
// the EventNode destructors when the chunk arrays go away.
EventQueue::~EventQueue() = default;

EventQueue::EventNode* EventQueue::RefillPool() {
  chunks_.push_back(std::make_unique<EventNode[]>(static_cast<size_t>(kChunkNodes)));
  EventNode* chunk = chunks_.back().get();
  for (int i = kChunkNodes - 1; i >= 0; --i) {
    chunk[i].next = free_;
    free_ = &chunk[i];
  }
  return free_;
}

void EventQueue::FreeNode(EventNode* n) {
  n->fn.Reset();  // releases a boxed callable, if any
  n->next = free_;
  free_ = n;
}

void EventQueue::ClearSlotBit(int level, int idx) {
  const int word = idx >> 6;
  if ((bitmap_[level][word] &= ~(uint64_t{1} << (idx & 63))) == 0) {
    summary_[level] &= ~(uint32_t{1} << word);
  }
}

int EventQueue::FindSetFrom(int level, int from) const {
  if (from >= kWheelSlots) {
    return -1;
  }
  int word = from >> 6;
  const uint64_t bits = bitmap_[level][word] & (~uint64_t{0} << (from & 63));
  if (bits != 0) {
    return (word << 6) + std::countr_zero(bits);
  }
  const uint32_t words = summary_[level] & (~uint32_t{0} << (word + 1));
  if (words == 0) {
    return -1;
  }
  word = std::countr_zero(words);
  return (word << 6) + std::countr_zero(bitmap_[level][word]);
}

void EventQueue::InsertReady(EventNode* n) {
  EventNode** p = &ready_head_;
  while (*p != nullptr && Before(*p, n)) {
    p = &(*p)->next;
  }
  n->next = *p;
  *p = n;
}

void EventQueue::InsertNode(EventNode* n) {
  if (n->t < ready_limit_) {
    // Lands inside the already-drained window (e.g. scheduled at now() from
    // inside a callback): merge into the sorted ready list.
    InsertReady(n);
    return;
  }
  const int64_t tick = TickOf(n->t);
  // A node goes into the lowest level whose enclosing window contains the
  // cursor; within one window, slot indices never collide across rotations.
  for (int level = 0; level < kLevels; ++level) {
    const int window_shift = kWheelBits * (level + 1);
    if ((tick >> window_shift) == (next_tick_ >> window_shift)) {
      const int idx = static_cast<int>((tick >> (kWheelBits * level)) & kSlotMask);
      PushSlot(level, idx, n);
      return;
    }
  }
  far_.push_back(n);
  std::push_heap(far_.begin(), far_.end(), FarLater{});
}

EventQueue::EventNode* EventQueue::TakeSlot(int level, int idx) {
  EventNode* tail = slots_[level][idx];
  assert(tail != nullptr && "taking an empty slot");
  slots_[level][idx] = nullptr;
  ClearSlotBit(level, idx);
  EventNode* head = tail->next;
  tail->next = nullptr;
  return head;
}

EventQueue::EventNode* EventQueue::MergeLists(EventNode* a, EventNode* b) {
  EventNode* head = nullptr;
  EventNode** tail = &head;
  while (a != nullptr && b != nullptr) {
    if (Before(b, a)) {
      std::swap(a, b);
    }
    *tail = a;
    tail = &a->next;
    a = a->next;
  }
  *tail = a != nullptr ? a : b;
  return head;
}

// Bottom-up merge sort: runs[i] holds a sorted run of 2^i nodes or nothing.
// A flagged slot holds two or three nodes on average, so only the `used`
// entries are ever initialized or read, rather than clearing all 64.
EventQueue::EventNode* EventQueue::SortList(EventNode* head) {
  EventNode* runs[64];
  int used = 0;
  while (head != nullptr) {
    EventNode* run = head;
    head = head->next;
    run->next = nullptr;
    int i = 0;
    for (; i < used && runs[i] != nullptr; ++i) {
      run = MergeLists(runs[i], run);
      runs[i] = nullptr;
    }
    if (i == used) {
      ++used;
    }
    runs[i] = run;
  }
  EventNode* sorted = nullptr;
  for (int i = 0; i < used; ++i) {
    sorted = MergeLists(runs[i], sorted);
  }
  return sorted;
}

void EventQueue::DrainLevel0Slot(int idx) {
  EventNode* head = TakeSlot(0, idx);
  // An unflagged slot is already in (t, seq) order and becomes the ready
  // list as it is.
  uint64_t& word = unsorted_[idx >> 6];
  const uint64_t bit = uint64_t{1} << (idx & 63);
  if ((word & bit) != 0) [[unlikely]] {
    word &= ~bit;
    head = SortList(head);
  }
  ready_head_ = head;
}

void EventQueue::CascadeSlot(int level, int idx) {
  EventNode* n = TakeSlot(level, idx);
  while (n != nullptr) {
    EventNode* next = n->next;
    InsertNode(n);
    n = next;
  }
}

bool EventQueue::Advance() {
  if (size_ == 0) {
    return false;
  }
  for (;;) {
    if (ready_head_ != nullptr) {
      // A cascade or far-heap drain landed nodes directly in ready_.
      return true;
    }
    // Catch the hierarchy up with the cursor. Entering a new window can
    // happen mid-stream (the drained tick + 1 crosses a window boundary,
    // and the callback immediately schedules into the new window), so the
    // incoming window's higher-level slot must cascade down *before* the
    // level-0 scan — otherwise fresh level-0 events would run ahead of
    // earlier ones still parked a level up.
    const int64_t rot = next_tick_ >> (kLevels * kWheelBits);
    if (rot != caught_up_rot_) {
      caught_up_rot_ = rot;
      while (!far_.empty() && (TickOf(far_.front()->t) >> (kLevels * kWheelBits)) == rot) {
        std::pop_heap(far_.begin(), far_.end(), FarLater{});
        EventNode* n = far_.back();
        far_.pop_back();
        InsertNode(n);
      }
    }
    const int64_t w2 = next_tick_ >> (2 * kWheelBits);
    if (w2 != caught_up_w2_) {
      caught_up_w2_ = w2;
      const int idx2 = static_cast<int>(w2 & kSlotMask);
      if (slots_[2][idx2] != nullptr) {
        CascadeSlot(2, idx2);
      }
    }
    const int64_t w1 = next_tick_ >> kWheelBits;
    if (w1 != caught_up_w1_) {
      caught_up_w1_ = w1;
      const int idx1 = static_cast<int>(w1 & kSlotMask);
      if (slots_[1][idx1] != nullptr) {
        CascadeSlot(1, idx1);
      }
    }
    // Level 0: next occupied bucket in the current window.
    int idx = FindSetFrom(0, static_cast<int>(next_tick_ & kSlotMask));
    if (idx >= 0) {
      const int64_t tick = ((next_tick_ >> kWheelBits) << kWheelBits) | idx;
      next_tick_ = tick + 1;
      ready_limit_ = (tick + 1) << kTickShift;
      DrainLevel0Slot(idx);
      return true;
    }
    // Level 0 exhausted: cascade the next occupied level-1 slot down (the
    // cursor's own slot is empty — the catch-up above cascaded it — so the
    // inclusive scan lands on a strictly later window).
    idx = FindSetFrom(1, static_cast<int>(w1 & kSlotMask));
    if (idx >= 0) {
      const int64_t w1_new = ((w1 >> kWheelBits) << kWheelBits) | idx;
      next_tick_ = std::max(next_tick_, w1_new << kWheelBits);
      CascadeSlot(1, idx);
      continue;
    }
    idx = FindSetFrom(2, static_cast<int>(w2 & kSlotMask));
    if (idx >= 0) {
      const int64_t w2_new = ((w2 >> kWheelBits) << kWheelBits) | idx;
      next_tick_ = std::max(next_tick_, w2_new << (2 * kWheelBits));
      CascadeSlot(2, idx);
      continue;
    }
    // Wheels are empty: jump the cursor to the far-future heap and pull in
    // everything that now fits under the wheels' span.
    if (far_.empty()) {
      return false;
    }
    next_tick_ = std::max(next_tick_, TickOf(far_.front()->t));
    const int64_t rotation = next_tick_ >> (kLevels * kWheelBits);
    while (!far_.empty() && (TickOf(far_.front()->t) >> (kLevels * kWheelBits)) == rotation) {
      std::pop_heap(far_.begin(), far_.end(), FarLater{});
      EventNode* n = far_.back();
      far_.pop_back();
      InsertNode(n);
    }
  }
}

bool EventQueue::RunOne() {
  if (ready_head_ == nullptr && !Advance()) {
    return false;
  }
  EventNode* n = ready_head_;
  ready_head_ = n->next;
  --size_;
  now_ = n->t;
  ++events_run_;
  // Invoke in place: the node is already unlinked, so a callback that
  // schedules follow-up events can never touch it, and the callable is not
  // moved on the hot path. Recycle the node after.
  n->fn();
  FreeNode(n);
  return true;
}

void EventQueue::RunUntil(SimTime t) {
  for (;;) {
    if (ready_head_ == nullptr && !Advance()) {
      break;
    }
    EventNode* n = ready_head_;
    if (n->t > t) {
      break;
    }
    ready_head_ = n->next;
    --size_;
    now_ = n->t;
    ++events_run_;
    n->fn();
    FreeNode(n);
  }
  if (t > now_) {
    now_ = t;
  }
}

uint64_t EventQueue::RunAll(uint64_t max_events) {
  uint64_t n = 0;
  while (n < max_events && RunOne()) {
    ++n;
  }
  if (size_ > 0) {
    NPR_ERROR("RunAll stopped at its %llu-event cap with %zu events still pending "
              "(runaway self-rescheduling loop?)",
              static_cast<unsigned long long>(max_events), size_);
  }
  return n;
}

void EventQueue::Clear() {
  while (ready_head_ != nullptr) {
    EventNode* n = ready_head_;
    ready_head_ = n->next;
    FreeNode(n);
  }
  for (int level = 0; level < kLevels; ++level) {
    for (int word = 0; word < kBitmapWords; ++word) {
      for (uint64_t bits = bitmap_[level][word]; bits != 0; bits &= bits - 1) {
        EventNode* n = TakeSlot(level, (word << 6) + std::countr_zero(bits));
        while (n != nullptr) {
          EventNode* next = n->next;
          FreeNode(n);
          n = next;
        }
      }
    }
  }
  for (uint64_t& word : unsorted_) {
    word = 0;
  }
  for (EventNode* n : far_) {
    FreeNode(n);
  }
  far_.clear();
  size_ = 0;
}

}  // namespace npr

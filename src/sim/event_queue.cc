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

int EventQueue::FindSetFrom(int from) const {
  int word = from >> 6;
  const uint64_t bits = bitmap_[word] & (~uint64_t{0} << (from & 63));
  if (bits != 0) {
    return (word << 6) + std::countr_zero(bits);
  }
  const uint32_t words = summary_ & (~uint32_t{0} << (word + 1));
  if (words == 0) {
    return -1;
  }
  word = std::countr_zero(words);
  return (word << 6) + std::countr_zero(bitmap_[word]);
}

void EventQueue::InsertNode(EventNode* n) {
  if (TickOf(n->t) >= next_tick_) {
    far_.push_back(n);
    std::push_heap(far_.begin(), far_.end(), FarLater{});
    return;
  }
  // Before the cursor (scheduled at now() by a callback, or after RunUntil
  // stopped short of a drained bucket): merge into the sorted ready list.
  EventNode** p = &ready_head_;
  while (*p != nullptr && Before(*p, n)) {
    p = &(*p)->next;
  }
  n->next = *p;
  *p = n;
}

EventQueue::EventNode* EventQueue::TakeSlot(int idx) {
  EventNode* tail = slots_[idx];
  assert(tail != nullptr && "taking an empty slot");
  slots_[idx] = nullptr;
  const int word = idx >> 6;
  if ((bitmap_[word] &= ~(uint64_t{1} << (idx & 63))) == 0) {
    summary_ &= ~(uint32_t{1} << word);
  }
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

void EventQueue::DrainSlot(int idx) {
  EventNode* head = TakeSlot(idx);
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

bool EventQueue::Advance() {
  for (;;) {
    // Pull before scan: every heap node the span now covers moves into its
    // slot before the wheel is scanned, or a fresh node further along the
    // span would run ahead of it. It was scheduled before every node that
    // reached its slot directly, so PushSlot flags the slot when it lands
    // behind one.
    while (!far_.empty() && TickOf(far_.front()->t) - next_tick_ < kWheelSlots) {
      std::pop_heap(far_.begin(), far_.end(), FarLater{});
      EventNode* n = far_.back();
      far_.pop_back();
      PushSlot(static_cast<int>(TickOf(n->t) & kSlotMask), n);
    }
    // One scan from the cursor, wrapping past slot 1023: slots below the
    // cursor's hold the next lap's ticks.
    const int cursor = static_cast<int>(next_tick_ & kSlotMask);
    int idx = FindSetFrom(cursor);
    if (idx < 0) {
      idx = FindSetFrom(0);
    }
    if (idx >= 0) {
      next_tick_ += ((idx - cursor) & kSlotMask) + 1;
      DrainSlot(idx);
      return true;
    }
    // The wheel is empty: jump the cursor to the heap's top.
    if (far_.empty()) {
      return false;
    }
    next_tick_ = TickOf(far_.front()->t);
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
  for (int word = 0; word < kBitmapWords; ++word) {
    for (uint64_t bits = bitmap_[word]; bits != 0; bits &= bits - 1) {
      EventNode* n = TakeSlot((word << 6) + std::countr_zero(bits));
      while (n != nullptr) {
        EventNode* next = n->next;
        FreeNode(n);
        n = next;
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

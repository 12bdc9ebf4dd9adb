#include "src/ixp/hw_mutex.h"

#include <cassert>

namespace npr {

HwMutex::HwMutex(EventQueue& engine, MemoryChannel& sram, uint32_t grant_cycles)
    : engine_(engine), sram_(sram), grant_cycles_(grant_cycles) {}

void HwMutex::Awaiter::await_suspend(std::coroutine_handle<> h) {
  HwMutex* m = mutex;
  HwContext* c = ctx;
  c->set_wait_class(WaitClass::kMutex);
  // The CAM probe is an SRAM access; the context swaps out for it like any
  // other memory reference.
  HwContext::BlockAwaiter block{c};
  block.await_suspend(h);
  m->sram_.Issue(4, /*is_write=*/false, [m, c] { m->OnAcquireLanded(c); });
}

void HwMutex::OnAcquireLanded(HwContext* ctx) {
  ++acquires_;
  if (!locked_) {
    locked_ = true;
    ctx->MakeReady();
  } else {
    ++contended_acquires_;
    waiters_.push_back(ctx);  // hardware CAM queue: no memory traffic while waiting
  }
}

void HwMutex::Release() {
  assert(locked_ && "Release of an unlocked HwMutex");
  sram_.Issue(4, /*is_write=*/true, [this] { OnReleaseLanded(); });
}

void HwMutex::OnReleaseLanded() {
  if (waiters_.empty()) {
    locked_ = false;
    return;
  }
  HwContext* next = waiters_.front();
  waiters_.pop_front();
  // locked_ stays true: ownership passes directly to the next waiter after
  // the bus-turnaround + inter-engine signal delay.
  engine_.ScheduleIn(kIxpClock.ToTime(grant_cycles_), [next] { next->MakeReady(); });
}

}  // namespace npr

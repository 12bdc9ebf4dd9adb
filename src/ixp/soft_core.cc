#include "src/ixp/soft_core.h"

namespace npr {

void SoftCore::Install(Task task) {
  assert(!started_ && "core already running a program");
  task_ = std::move(task);
  started_ = true;
  task_.Start();
}

void SoftCore::Resume() {
  auto h = std::exchange(pending_, std::coroutine_handle<>{});
  assert(h && "resume with no pending suspension point");
  h.resume();
}

void SoftCore::ComputeAwaiter::await_suspend(std::coroutine_handle<> h) {
  // A single-context core has nothing to dispatch on wakeup: the scheduled
  // event resumes the coroutine directly, with no bookkeeping in between.
  SoftCore* c = core;
  c->busy_cycles_ += cycles;
  c->engine_.ScheduleResumeIn(c->clock_.ToTime(static_cast<int64_t>(cycles)), h);
}

void SoftCore::MemAwaiter::await_suspend(std::coroutine_handle<> h) {
  core->engine_.ScheduleResume(channel->Issue(bytes, is_write, nullptr), h);
}

void SoftCore::BlockAwaiter::await_suspend(std::coroutine_handle<> h) {
  SoftCore* c = core;
  c->pending_ = h;
  c->blocked_ = true;
}

void SoftCore::Wake() {
  if (!blocked_) {
    return;
  }
  blocked_ = false;
  // Wakeup is delivered through the event queue to keep resumption ordering
  // deterministic with respect to the waking event.
  engine_.ScheduleRaw(engine_.now(), [](void* c) { static_cast<SoftCore*>(c)->Resume(); }, this);
}

}  // namespace npr

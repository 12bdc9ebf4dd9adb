#include "src/ixp/microengine.h"

#include <utility>

#include "src/sim/log.h"

namespace npr {

HwContext::HwContext(MicroEngine& me, int index) : me_(me), index_(index) {}

void HwContext::Install(Task task) {
  // A context can be (re)programmed only while it has no live program: never
  // installed, or its previous program ran to completion (crash-and-restart
  // reinstalls a context whose loop co_returned).
  assert((!installed_ || state_ == State::kIdle) && "context already has a live program");
  task_ = std::move(task);
  installed_ = true;
  started_ = false;
  state_ = State::kReady;
  me_.EnqueueReady(this);
}

void HwContext::MakeReady() {
  assert(state_ == State::kBlocked && "MakeReady on a context that is not blocked");
  if (me_.profiler_ != nullptr) {
    me_.profiler_->AddWait(static_cast<uint8_t>(me_.id()), static_cast<uint8_t>(index_),
                           wait_class_, me_.event_queue().now() - blocked_since_);
  }
  wait_class_ = WaitClass::kFifo;
  state_ = State::kReady;
  me_.EnqueueReady(this);
}

void HwContext::ResumeNow() {
  assert(state_ == State::kRunning);
  if (!started_) {
    started_ = true;
    task_.Start();
  } else {
    auto h = std::exchange(pending_, std::coroutine_handle<>{});
    assert(h && "resume with no pending suspension point");
    h.resume();
  }
  if (task_.done()) {
    // Finite programs (tests, one-shot probes) fall off the end; release
    // the pipeline for the remaining contexts.
    state_ = State::kIdle;
    if (me_.running_ == this) {
      me_.running_ = nullptr;
      me_.Dispatch();
    }
  }
}

void HwContext::ComputeAwaiter::await_suspend(std::coroutine_handle<> h) {
  HwContext* c = ctx;
  assert(c->state_ == State::kRunning);
  c->pending_ = h;
  c->compute_cycles_ += cycles;
  c->me_.OnComputeStart(c, cycles);
}

void HwContext::MemAwaiter::await_suspend(std::coroutine_handle<> h) {
  HwContext* c = ctx;
  assert(c->state_ == State::kRunning);
  c->pending_ = h;
  c->wait_class_ = static_cast<WaitClass>(channel->config().profile_class);
  const SimTime done_at = channel->Issue(bytes, is_write, nullptr);
  c->me_.engine_.ScheduleRaw(done_at, [](void* ctx) { static_cast<HwContext*>(ctx)->MakeReady(); },
                             c);
  c->me_.OnBlocked(c);
}

void HwContext::Post(MemoryChannel& channel, uint32_t bytes) {
  channel.Issue(bytes, /*is_write=*/true, nullptr);
}

void HwContext::PostBurst(MemoryChannel& channel, uint32_t n, uint32_t bytes_each) {
  channel.IssueBurst(n, bytes_each, /*is_write=*/true, nullptr);
}

void HwContext::BlockAwaiter::await_suspend(std::coroutine_handle<> h) {
  HwContext* c = ctx;
  assert(c->state_ == State::kRunning);
  c->pending_ = h;
  c->me_.OnBlocked(c);
}

void HwContext::YieldAwaiter::await_suspend(std::coroutine_handle<> h) {
  HwContext* c = ctx;
  assert(c->state_ == State::kRunning);
  c->pending_ = h;
  c->state_ = State::kReady;
  c->me_.running_ = nullptr;
  c->me_.EnqueueReady(c);
}

MicroEngine::MicroEngine(EventQueue& engine, int id, int num_contexts,
                         uint32_t ctx_switch_cycles)
    : engine_(engine), id_(id), ctx_switch_cycles_(ctx_switch_cycles) {
  contexts_.reserve(static_cast<size_t>(num_contexts));
  for (int i = 0; i < num_contexts; ++i) {
    contexts_.push_back(std::make_unique<HwContext>(*this, i));
  }
  ready_ring_.assign(static_cast<size_t>(num_contexts), nullptr);
}

double MicroEngine::Utilization(SimTime window_start) const {
  const SimTime window = engine_.now() - window_start;
  if (window <= 0) {
    return 0.0;
  }
  return static_cast<double>(busy_cycles_) * static_cast<double>(kIxpClock.cycle_ps) /
         static_cast<double>(window);
}

void MicroEngine::EnqueueReady(HwContext* ctx) {
  assert(ctx->state_ == HwContext::State::kReady);
  assert(ready_count_ < ready_ring_.size());
  size_t tail = ready_head_ + ready_count_;
  if (tail >= ready_ring_.size()) {
    tail -= ready_ring_.size();
  }
  ready_ring_[tail] = ctx;
  ++ready_count_;
  if (running_ == nullptr) {
    Dispatch();
  }
}

void MicroEngine::OnBlocked(HwContext* ctx) {
  assert(running_ == ctx);
  ctx->blocked_since_ = engine_.now();
  ctx->state_ = HwContext::State::kBlocked;
  running_ = nullptr;
  Dispatch();
}

void MicroEngine::OnComputeStart(HwContext* ctx, uint32_t cycles) {
  assert(running_ == ctx);
  busy_cycles_ += cycles;
  if (profiler_ != nullptr) {
    profiler_->AddCompute(static_cast<uint8_t>(id_), static_cast<uint8_t>(ctx->index_), cycles);
  }
  // A computing context keeps the pipeline: it resumes directly, with no
  // dispatch in between (fn-ptr + context, the queue's cheapest shape).
  engine_.ScheduleRaw(engine_.now() + kIxpClock.ToTime(cycles),
                      [](void* c) {
                        auto* running = static_cast<HwContext*>(c);
                        assert(running->state_ == HwContext::State::kRunning);
                        running->ResumeNow();
                      },
                      ctx);
}

void MicroEngine::Dispatch() {
  if (running_ != nullptr || ready_count_ == 0 || dispatch_scheduled_) {
    return;
  }
  dispatch_scheduled_ = true;
  // The swap bubble: the pipeline restarts the incoming context a cycle
  // after the outgoing one left (fn-ptr + engine, the queue's cheapest
  // event shape — this fires once per context swap).
  engine_.ScheduleRaw(
      engine_.now() + kIxpClock.ToTime(ctx_switch_cycles_),
      [](void* self_raw) {
        auto* self = static_cast<MicroEngine*>(self_raw);
        self->dispatch_scheduled_ = false;
        if (self->running_ != nullptr || self->ready_count_ == 0) {
          return;
        }
        HwContext* ctx = self->PopReady();
        assert(ctx->state_ == HwContext::State::kReady);
        ctx->state_ = HwContext::State::kRunning;
        self->running_ = ctx;
        ctx->ResumeNow();
      },
      this);
}

}  // namespace npr

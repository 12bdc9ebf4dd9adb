#include "src/ixp/token_ring.h"

#include <cassert>

#include "src/fault/fault_injector.h"
#include "src/obs/observer.h"

namespace npr {

TokenRing::TokenRing(EventQueue& engine, uint32_t pass_cycles)
    : engine_(engine), pass_cycles_(pass_cycles) {}

int TokenRing::AddMember(HwContext& ctx) {
  assert(!held_ && "cannot add members while the token is held");
  members_.push_back(Member{&ctx});
  last_grant_ps_ = engine_.now();
  return static_cast<int>(members_.size()) - 1;
}

int TokenRing::members_up() const {
  int up = 0;
  for (const Member& m : members_) {
    up += m.down ? 0 : 1;
  }
  return up;
}

bool TokenRing::TryGrant(int member) {
  assert(member >= 0 && member < size());
  if (available_ && offered_to_ == member) {
    available_ = false;
    held_ = true;
    idle_ps_ += engine_.now() - offer_since_;
    last_grant_ps_ = engine_.now();
    return true;
  }
  return false;
}

void TokenRing::SetMemberDown(int member, bool down) {
  assert(member >= 0 && member < size());
  Member& m = members_[static_cast<size_t>(member)];
  if (down) {
    assert(!(held_ && offered_to_ == member) && "token holder cannot go down");
    m.down = true;
    m.waiting = false;
    m.down_since = engine_.now();
    if (available_ && offered_to_ == member) {
      // The token was sitting on the dying member's doorstep; pass it on so
      // the rotation survives.
      available_ = false;
      const int next = (member + 1) % size();
      engine_.ScheduleIn(kIxpClock.ToTime(pass_cycles_), [this, next] { Offer(next); });
    }
  } else {
    m.down = false;
    if (parked_) {
      parked_ = false;
      Offer(member);
    }
  }
}

void TokenRing::Awaiter::await_suspend(std::coroutine_handle<> h) {
  Member& m = ring->members_[static_cast<size_t>(member)];
  assert(!m.waiting && "member already waiting for the token");
  m.waiting = true;
  m.ctx->set_wait_class(WaitClass::kToken);
  // The context blocks; Offer() wakes it through its MicroEngine.
  HwContext::BlockAwaiter block{m.ctx};
  block.await_suspend(h);
}

void TokenRing::Release(int member) {
  assert(held_ && offered_to_ == member && "Release by a non-holder");
  held_ = false;
  const int next = (member + 1) % size();
  SimTime delay = kIxpClock.ToTime(pass_cycles_);
  if (fault_ != nullptr) {
    if (fault_->ShouldLoseToken()) {
      // The hand-off signal vanishes entirely: no offer is scheduled, the
      // ring wedges, and only RecoverLostToken() can revive it.
      lost_ = true;
      lost_next_ = next;
      lost_since_ = engine_.now();
      NPR_OBS_HOOK(tracer_, Record(SpanPoint::kFault, 0, kUnitNone,
                                   static_cast<uint16_t>(FaultKind::kTokenLost)));
      NPR_OBS_HOOK(tracer_, TriggerDump("token_lost", 0));
      return;
    }
    // A dropped inter-thread signal: the offer is redelivered late.
    delay += fault_->TokenOfferDelayPs();
  }
  engine_.ScheduleIn(delay, [this, next] { Offer(next); });
}

bool TokenRing::RecoverLostToken() {
  if (!lost_) {
    return false;
  }
  lost_ = false;
  Offer(lost_next_);
  return true;
}

void TokenRing::Offer(int member) {
  // Skip members that crashed out of the rotation.
  int target = member;
  for (int i = 0; i < size() && members_[static_cast<size_t>(target)].down; ++i) {
    target = (target + 1) % size();
  }
  if (members_[static_cast<size_t>(target)].down) {
    // Everyone is down; park the token until a restart calls
    // SetMemberDown(member, false).
    parked_ = true;
    available_ = false;
    return;
  }
  offered_to_ = target;
  offer_since_ = engine_.now();
  Member& m = members_[static_cast<size_t>(target)];
  if (m.waiting) {
    m.waiting = false;
    available_ = false;
    held_ = true;
    last_grant_ps_ = engine_.now();
    m.ctx->MakeReady();
  } else {
    // Signal stays set; the member will claim it in TryGrant when it next
    // reaches its Acquire.
    available_ = true;
  }
}

}  // namespace npr

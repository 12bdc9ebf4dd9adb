#include "src/health/health_monitor.h"

#include "src/core/overload.h"
#include "src/core/upgrade.h"
#include "src/fault/fault_injector.h"
#include "src/obs/observer.h"

namespace npr {

namespace {

// A kRecovery span (unit kUnitHealth, arg = RecoveryEvent::Kind) marks the
// moment service was restored, so flight-recorder dumps taken after a fault
// show the repair alongside the damage.
void RecordRecoverySpan(Router& router, RecoveryEvent::Kind kind) {
  NPR_OBS_HOOK(router.observer(),
               Record(SpanPoint::kRecovery, 0, kUnitHealth, static_cast<uint16_t>(kind)));
}

}  // namespace

HealthMonitor::HealthMonitor(Router& router, HealthConfig config)
    : router_(router), cfg_(config) {
  router_.set_health_hooks(this);
  const SimTime now = router_.engine().now();
  pentium_progress_at_ = now;
  bridge_progress_at_ = now;
  router_.engine().ScheduleIn(cfg_.scan_interval_ps, [this] { Tick(); });
}

HealthMonitor::~HealthMonitor() { router_.set_health_hooks(nullptr); }

uint32_t HealthMonitor::trap_count(uint32_t program_id) const {
  auto it = quarantine_.find(program_id);
  return it == quarantine_.end() ? 0 : it->second.traps;
}

void HealthMonitor::Tick() {
  CheckTokenRings();
  CheckContexts();
  CheckPentium();
  CheckBridge();
  CheckOverload();
  CheckUpgrade();
  router_.engine().ScheduleIn(cfg_.scan_interval_ps, [this] { Tick(); });
}

void HealthMonitor::CheckTokenRings() {
  const SimTime now = router_.engine().now();
  TokenRing* rings[] = {&router_.input_stage().token_ring(),
                        &router_.output_stage().token_ring()};
  for (TokenRing* ring : rings) {
    if (!ring->token_lost()) {
      continue;
    }
    const SimTime fault_at = ring->token_lost_since_ps();
    if (now - fault_at < cfg_.token_deadline_ps) {
      continue;  // within the deadline: could still be a slow pass
    }
    if (ring->RecoverLostToken()) {
      router_.stats().watchdog_fired += 1;
      router_.stats().tokens_regenerated += 1;
      events_.push_back({RecoveryEvent::Kind::kTokenRegen, fault_at, now, now});
      RecordRecoverySpan(router_, RecoveryEvent::Kind::kTokenRegen);
    }
  }
}

void HealthMonitor::CheckContexts() {
  const SimTime now = router_.engine().now();
  InputStage& in = router_.input_stage();
  for (int i = 0; i < in.num_contexts(); ++i) {
    if (in.ContextDown(i) && now - in.ContextDownSincePs(i) >= cfg_.context_deadline_ps) {
      const SimTime fault_at = in.ContextDownSincePs(i);
      in.RecoverContext(i);
      router_.stats().watchdog_fired += 1;
      events_.push_back({RecoveryEvent::Kind::kContextRestore, fault_at, now, now});
      RecordRecoverySpan(router_, RecoveryEvent::Kind::kContextRestore);
    }
  }
  OutputStage& out = router_.output_stage();
  for (int i = 0; i < out.num_contexts(); ++i) {
    if (out.ContextDown(i) && now - out.ContextDownSincePs(i) >= cfg_.context_deadline_ps) {
      const SimTime fault_at = out.ContextDownSincePs(i);
      out.RecoverContext(i);
      router_.stats().watchdog_fired += 1;
      events_.push_back({RecoveryEvent::Kind::kContextRestore, fault_at, now, now});
      RecordRecoverySpan(router_, RecoveryEvent::Kind::kContextRestore);
    }
  }
}

void HealthMonitor::CheckPentium() {
  if (!router_.config().enable_pentium) {
    return;
  }
  const SimTime now = router_.engine().now();
  PentiumHost& pe = router_.pentium_host();
  const uint64_t processed = pe.processed();
  const uint64_t pending =
      router_.bridge().to_pentium().full_q.size() + pe.scheduler().backlog();

  if (processed != pentium_last_processed_) {
    pentium_last_processed_ = processed;
    pentium_progress_at_ = now;
    if (pentium_degraded_) {
      pentium_degraded_ = false;
      events_[degrade_event_index_].recovered_at = now;
      RecordRecoverySpan(router_, RecoveryEvent::Kind::kPentiumDegrade);
    }
    return;
  }
  if (pending == 0) {
    // Nothing for the Pentium to do: a stall cannot be observed (and does
    // no harm). If it is still hung when work arrives, the watchdog
    // re-fires then.
    pentium_progress_at_ = now;
    if (pentium_degraded_) {
      pentium_degraded_ = false;
      events_[degrade_event_index_].recovered_at = now;
      RecordRecoverySpan(router_, RecoveryEvent::Kind::kPentiumDegrade);
    }
    return;
  }
  if (!pentium_degraded_ && now - pentium_progress_at_ >= cfg_.pentium_deadline_ps) {
    // Attribute the fault to the injected hang when one is on record; a
    // real deployment only knows the last time progress was seen.
    SimTime fault_at = pentium_progress_at_;
    if (router_.fault_injector() != nullptr) {
      const SimTime hang_at = router_.fault_injector()->last_pentium_hang_at();
      if (hang_at >= pentium_progress_at_) {
        fault_at = hang_at;
      }
    }
    pentium_degraded_ = true;
    router_.stats().watchdog_fired += 1;
    degrade_event_index_ = events_.size();
    events_.push_back({RecoveryEvent::Kind::kPentiumDegrade, fault_at, now, 0});
  }
}

void HealthMonitor::CheckBridge() {
  const SimTime now = router_.engine().now();
  StrongArmBridge& bridge = router_.bridge();
  // Governor sheds count as bridge work: a bridge that spends the whole
  // scan interval shedding under overload is making progress, not stalled.
  const uint64_t work = bridge.bridged_to_pentium() + bridge.returned_from_pentium() +
                        bridge.local_processed() + router_.stats().pkts_shed_degraded +
                        router_.stats().gov_shed_pe + router_.stats().gov_shed_sa;
  const bool pending =
      !router_.sa_local_queue().empty() || !router_.sa_pentium_queue().empty();
  if (work != bridge_last_work_ || !pending) {
    bridge_last_work_ = work;
    bridge_progress_at_ = now;
    return;
  }
  if (now - bridge_progress_at_ >= cfg_.bridge_deadline_ps) {
    router_.stats().watchdog_fired += 1;
    router_.chip().strongarm().Wake();
    bridge_progress_at_ = now;  // rearm; fires again if the wake did not help
  }
}

void HealthMonitor::CheckOverload() {
  // Overload is a reported, recovered condition like any other fault class:
  // the episode opens when the governor's ladder leaves stage 0 (fault_at is
  // when pressure first crossed the enter threshold, so MTTD covers the
  // dwell) and closes when it returns.
  const OverloadGovernor* gov = router_.governor();
  if (gov == nullptr) {
    return;
  }
  const SimTime now = router_.engine().now();
  if (gov->overloaded() && !overload_open_) {
    overload_open_ = true;
    router_.stats().watchdog_fired += 1;
    overload_event_index_ = events_.size();
    events_.push_back({RecoveryEvent::Kind::kOverload, gov->overload_since_ps(), now, 0});
  } else if (!gov->overloaded() && overload_open_) {
    overload_open_ = false;
    events_[overload_event_index_].recovered_at = now;
    RecordRecoverySpan(router_, RecoveryEvent::Kind::kOverload);
  }
}

void HealthMonitor::CheckUpgrade() {
  // Upgrade rollbacks already carry the full fault/detect/recover triple;
  // the monitor just folds each new episode into the uniform event stream
  // so MTTD/MTTR reporting covers upgrades like every other fault class.
  const UpgradeOrchestrator* up = router_.upgrade();
  if (up == nullptr) {
    return;
  }
  const auto& rollbacks = up->rollbacks();
  for (; upgrade_rollback_index_ < rollbacks.size(); ++upgrade_rollback_index_) {
    const UpgradeRollbackRecord& r = rollbacks[upgrade_rollback_index_];
    router_.stats().watchdog_fired += 1;
    events_.push_back(
        {RecoveryEvent::Kind::kUpgradeRollback, r.fault_at, r.detected_at, r.recovered_at});
    RecordRecoverySpan(router_, RecoveryEvent::Kind::kUpgradeRollback);
  }
}

void HealthMonitor::OnVrpTrap(uint32_t program_id) {
  QuarantineState& q = quarantine_[program_id];
  if (q.evicted) {
    return;
  }
  q.traps += 1;
  if (q.first_trap_at == 0) {
    q.first_trap_at = router_.engine().now();
  }
  if (q.action_pending) {
    return;
  }
  const bool wants_evict = q.traps >= cfg_.evict_after_traps;
  const bool wants_throttle = !q.throttled && q.traps >= cfg_.throttle_after_traps;
  if (wants_evict || wants_throttle) {
    // Deferred: this is called from inside ClassifyFirstMp, which may be
    // iterating the general chain — never mutate the ISTORE inline.
    q.action_pending = true;
    router_.engine().ScheduleIn(1, [this, program_id] { ApplyQuarantine(program_id); });
  }
}

void HealthMonitor::ApplyQuarantine(uint32_t program_id) {
  auto it = quarantine_.find(program_id);
  if (it == quarantine_.end()) {
    return;
  }
  QuarantineState& q = it->second;
  q.action_pending = false;
  if (q.evicted) {
    return;
  }
  const SimTime now = router_.engine().now();
  if (q.traps >= cfg_.evict_after_traps) {
    q.evicted = true;
    const FlowMeta* flow = router_.flow_table().FindByProgram(program_id);
    if (flow != nullptr) {
      // Ordinary control-path removal: releases ISTORE slots, admission
      // commitments, and the flow binding. Path A continues on default IP.
      router_.Remove(flow->fid);
    } else {
      router_.istore().Remove(program_id);
    }
    router_.stats().watchdog_fired += 1;
    router_.stats().forwarders_quarantined += 1;
    events_.push_back({RecoveryEvent::Kind::kQuarantine, q.first_trap_at, now, now});
    RecordRecoverySpan(router_, RecoveryEvent::Kind::kQuarantine);
    return;
  }
  if (!q.throttled && q.traps >= cfg_.throttle_after_traps) {
    q.throttled = true;
    router_.istore().SetThrottled(program_id, true);
    router_.stats().watchdog_fired += 1;
    router_.engine().ScheduleIn(cfg_.throttle_cooldown_ps, [this, program_id] {
      auto lift = quarantine_.find(program_id);
      if (lift == quarantine_.end() || lift->second.evicted) {
        return;
      }
      lift->second.throttled = false;
      if (router_.istore().Get(program_id) != nullptr) {
        router_.istore().SetThrottled(program_id, false);
      }
    });
  }
}

}  // namespace npr

// Router health monitor (self-healing tentpole).
//
// The paper's robustness argument (§5) is that faults stay contained; this
// subsystem closes the loop from containment to *recovery*. A periodic
// watchdog tick walks the hierarchy:
//
//   MicroEngines — per-context liveness (a crashed context whose scheduled
//     restart was lost is reinstalled after a deadline) and token-ring
//     liveness (a lost token is regenerated, restoring rotation).
//   StrongARM    — bridge progress (a stalled bridge with work pending is
//     woken, recovering a lost doorbell).
//   Pentium      — progress watchdog (no packets serviced while work is
//     pending marks the host degraded; the bridge then sheds
//     Pentium-bound packets so path A keeps line rate, and the mark
//     clears when the host makes progress again).
//
// Separately, trapping forwarders are quarantined with escalation: traps
// are counted per ISTORE program; past `throttle_after_traps` the program
// is throttled (skipped, packets take default IP) for a cooldown, and past
// `evict_after_traps` it is evicted through the ordinary control interface
// (releasing ISTORE slots and admission commitments). All actions are
// deferred to scheduled events so the data path is never mutated from
// inside a classify call.
//
// Every deadline and threshold lives in HealthConfig; every recovery is
// recorded as a RecoveryEvent carrying fault/detect/recover timestamps so
// benches can report MTTD and MTTR per fault class.

#ifndef SRC_HEALTH_HEALTH_MONITOR_H_
#define SRC_HEALTH_HEALTH_MONITOR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/core/health_hooks.h"
#include "src/core/router.h"

namespace npr {

struct HealthConfig {
  // Watchdog scan period.
  SimTime scan_interval_ps = 50 * kPsPerUs;
  // How long a token may be lost before the monitor regenerates it.
  SimTime token_deadline_ps = 200 * kPsPerUs;
  // How long a context may be down before the monitor reinstalls it. Must
  // exceed the fault plan's normal restart delay, so the monitor only acts
  // when the scheduled restart was itself lost.
  SimTime context_deadline_ps = 500 * kPsPerUs;
  // Pentium progress deadline: no packet serviced while work is pending.
  SimTime pentium_deadline_ps = 300 * kPsPerUs;
  // StrongARM bridge progress deadline (lost doorbell recovery).
  SimTime bridge_deadline_ps = 2 * kPsPerMs;
  // Quarantine escalation: warn (count only) on the first trap, throttle at
  // `throttle_after_traps`, evict at `evict_after_traps` cumulative traps.
  uint32_t throttle_after_traps = 3;
  uint32_t evict_after_traps = 6;
  SimTime throttle_cooldown_ps = 2 * kPsPerMs;
};

struct RecoveryEvent {
  enum class Kind : uint8_t {
    kTokenRegen,      // lost token regenerated
    kContextRestore,  // context reinstalled after a lost restart
    kPentiumDegrade,  // Pentium marked degraded ... later cleared
    kQuarantine,      // forwarder evicted after repeated traps
    // Cluster scope (ClusterHealthMonitor / ClusterControlPlane):
    kLinkFailover,    // internal link lost, traffic rerouted or shed
    kNodeFailover,    // whole node lost, prefixes withdrawn cluster-wide
    kNodeReadmit,     // warm-restarted node resynced and re-admitted
    // Overload governor (src/core/overload.h):
    kOverload,        // ladder left stage 0 ... later returned to it
    // Upgrade orchestrator (src/core/upgrade.h):
    kUpgradeRollback,  // soaked upgrade reverted to the retained image
  };
  Kind kind = Kind::kTokenRegen;
  SimTime fault_at = 0;      // when the fault actually happened
  SimTime detected_at = 0;   // when the watchdog noticed
  SimTime recovered_at = 0;  // when service was restored (0 = not yet)

  SimTime mttd_ps() const { return detected_at - fault_at; }
  SimTime mttr_ps() const { return recovered_at - fault_at; }
};

class HealthMonitor : public HealthHooks {
 public:
  // Attaches to the router (set_health_hooks) and starts the watchdog tick.
  // The monitor must be destroyed before the router and must not outlive
  // the last RunFor it was alive for.
  explicit HealthMonitor(Router& router, HealthConfig config = HealthConfig{});
  ~HealthMonitor() override;

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  // HealthHooks (called from the data path; record/schedule only).
  void OnVrpTrap(uint32_t program_id) override;
  bool ShedPentiumBound() const override { return pentium_degraded_; }

  bool pentium_degraded() const { return pentium_degraded_; }
  uint32_t trap_count(uint32_t program_id) const;
  const std::vector<RecoveryEvent>& events() const { return events_; }
  const HealthConfig& config() const { return cfg_; }

 private:
  void Tick();
  void CheckTokenRings();
  void CheckContexts();
  void CheckPentium();
  void CheckBridge();
  void CheckOverload();
  void CheckUpgrade();
  void ApplyQuarantine(uint32_t program_id);

  struct QuarantineState {
    uint32_t traps = 0;
    bool throttled = false;
    bool evicted = false;
    bool action_pending = false;
    SimTime first_trap_at = 0;
  };

  Router& router_;
  HealthConfig cfg_;

  bool pentium_degraded_ = false;
  uint64_t pentium_last_processed_ = 0;
  SimTime pentium_progress_at_ = 0;
  size_t degrade_event_index_ = 0;

  uint64_t bridge_last_work_ = 0;
  SimTime bridge_progress_at_ = 0;

  bool overload_open_ = false;
  size_t overload_event_index_ = 0;

  size_t upgrade_rollback_index_ = 0;

  std::map<uint32_t, QuarantineState> quarantine_;
  std::vector<RecoveryEvent> events_;
};

}  // namespace npr

#endif  // SRC_HEALTH_HEALTH_MONITOR_H_

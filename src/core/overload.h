// Overload governor: graceful degradation under adversarial traffic.
//
// The paper's robustness argument is performance *isolation* — path A holds
// line rate no matter what paths B/C see — but isolation alone does not
// survive hostile offered load: min-size floods fill port receive memory,
// elephant flows starve conforming sources, and host-bound churn wedges the
// StrongARM. Worse, in a cluster, node-local overload that starves OSPF
// hellos or health probes masquerades as node death and triggers spurious
// cluster-wide reconvergence — the failure amplification Mogul &
// Ramakrishnan's receive-livelock work and SEDA-style adaptive shedding
// exist to prevent.
//
// The governor samples pressure (worst port RX fill and host-queue fill) on
// a periodic tick and drives a hysteresis-controlled degradation ladder:
//
//   stage 1  RED-style probabilistic early drop at MAC RX, before a frame
//            consumes port memory or an input context.
//   stage 2  per-flow policing: sources that offered more than a share of a
//            port's frames last tick are heavy hitters and are policed.
//   stage 3  forwarder throttling: installed general VRP extensions are
//            throttled through the ISTORE (packets take default IP), and
//            the bridge sheds host-bound packets (paths B/C) so the
//            StrongARM serves path A.
//   stage 4  hard shed: every data frame is dropped at MAC RX with
//            ICMP-source-quench-style per-source accounting.
//
// A strict-priority carve-out is orthogonal to the ladder: OSPF-lite frames
// (IP proto 89) are classified at MAC RX, enqueued ahead of data, exempt
// from tail drop, and never shed at any stage — overload cannot silence the
// control plane. Every transition and every shed is attributed: stage
// changes raise gov_escalations and a kGovStage span; drops land in
// per-stage counters that RouterInvariants reconciles against the per-port
// MAC accounting. Attached to HealthMonitor, overload is a reported,
// recovered condition (RecoveryEvent::kOverload with MTTD/MTTR), not
// silence. Each threshold in OverloadConfig has an enter level above its
// exit level plus a dwell, so bursty pressure cannot make the ladder flap.

#ifndef SRC_CORE_OVERLOAD_H_
#define SRC_CORE_OVERLOAD_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "src/core/router.h"
#include "src/net/rx_governor.h"
#include "src/sim/random.h"

namespace npr {

struct OverloadConfig {
  // Seed for the governor's private Rng (RED and policing coin flips); the
  // same (config, workload) pair replays every verdict bit-identically.
  uint64_t seed = 0x90feed01ULL;
  // Pressure sampling period.
  SimTime tick_ps = 20 * kPsPerUs;

  // Ladder thresholds on pressure = max(port RX fill, host-queue fill).
  // Stage S is entered after pressure held >= enter_fill[S] for
  // escalate_dwell_ticks consecutive ticks, and left after pressure held
  // < exit_fill[S] for deescalate_dwell_ticks. enter_fill[S] > exit_fill[S]
  // is the hysteresis band; transitions move one stage per dwell.
  double enter_fill[5] = {0.0, 0.20, 0.45, 0.65, 0.90};
  double exit_fill[5] = {0.0, 0.08, 0.25, 0.45, 0.70};
  int escalate_dwell_ticks = 2;
  int deescalate_dwell_ticks = 6;

  // Stage 1+: RED early drop. Below red_min_fill a port never drops; the
  // drop probability ramps linearly to red_max_p at red_max_fill.
  double red_min_fill = 0.25;
  double red_max_fill = 0.95;
  double red_max_p = 0.85;

  // Stage 2+: heavy-hitter policing. A source is hot on a port when it
  // offered at least hh_share of the port's frames last tick (and at least
  // hh_min_frames); hot sources are policed with probability hh_drop_p.
  double hh_share = 0.25;
  uint64_t hh_min_frames = 8;
  double hh_drop_p = 0.9;
};

class OverloadGovernor : public RxGovernorHooks {
 public:
  // Attaches to the router (SetGovernor on the core and every MacPort) and
  // starts the pressure tick. Like the HealthMonitor: must be destroyed
  // before the router, and must not outlive the last RunFor it was alive
  // for.
  explicit OverloadGovernor(Router& router, OverloadConfig config = OverloadConfig{});
  ~OverloadGovernor() override;

  OverloadGovernor(const OverloadGovernor&) = delete;
  OverloadGovernor& operator=(const OverloadGovernor&) = delete;

  // RxGovernorHooks: per-frame verdict at MAC RX (called from the port's
  // wire-completion event; accounts and decides, never mutates inline).
  RxVerdict AdmitFrame(uint8_t port, const Packet& packet,
                       size_t rx_backlog_mps) override;

  // Bridge policy: shed host-bound work (Pentium-bound / SA-local queues)
  // while the ladder is at stage 3 or above.
  bool ShedHostBound() const { return stage_ >= 3; }
  bool ShedSaLocal() const { return stage_ >= 3; }

  // --- introspection (tests, health monitor, benches) ---
  int stage() const { return stage_; }
  bool overloaded() const { return stage_ > 0; }
  // When the current (or most recent) overload episode began (stage 0 -> 1).
  SimTime overload_since_ps() const { return overload_since_ps_; }
  uint64_t escalations() const { return escalations_; }
  uint64_t control_admitted() const { return control_admitted_; }
  // ICMP-source-quench-style accounting: hard-shed frames per source IP.
  const std::map<uint32_t, uint64_t>& quench_by_src() const { return quench_by_src_; }
  // Sources currently policed on `port` (last tick's heavy hitters).
  const std::set<uint32_t>& hot_sources(uint8_t port) const;
  const OverloadConfig& config() const { return cfg_; }

 private:
  void Tick();
  double Pressure();
  void SetStage(int next);
  void CountOffered(uint8_t port, uint32_t src);
  void RebuildHotSets();
  void ThrottleExtensions();
  void LiftThrottles();

  Router& router_;
  OverloadConfig cfg_;
  Rng rng_;

  int stage_ = 0;
  int escalate_ticks_ = 0;
  int deescalate_ticks_ = 0;
  SimTime overload_since_ps_ = 0;
  uint64_t escalations_ = 0;
  uint64_t control_admitted_ = 0;

  // Offered frames by source IP over the current tick, one table per port:
  // open addressing with linear probing, a power-of-two bucket count and
  // load at most 1/2. Each tick clears the buckets in place, so counting a
  // frame allocates nothing once a port has seen its busiest tick. Totals
  // are sums and hot sets are sets, so no result depends on bucket order.
  struct SourceCount {
    uint32_t src;
    uint32_t frames;  // 0 marks an empty bucket (source 0 is a valid key)
  };
  struct OfferedTable {
    std::vector<SourceCount> buckets;
    size_t used = 0;
  };
  // The bucket holding `src`, or the empty bucket that ends its probe run.
  static SourceCount& ProbeSource(std::vector<SourceCount>& buckets, uint32_t src);
  std::vector<OfferedTable> offered_;
  std::map<uint8_t, std::set<uint32_t>> hot_;
  std::map<uint32_t, uint64_t> quench_by_src_;

  // ISTORE handles this governor throttled at stage 3 — only these are
  // lifted on de-escalation, so a health-quarantine throttle on the same
  // store is never clobbered.
  std::set<uint32_t> throttled_by_gov_;
};

}  // namespace npr

#endif  // SRC_CORE_OVERLOAD_H_

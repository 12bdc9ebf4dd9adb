// Federated cluster health: per-node liveness probes and escalation.
//
// Each node already runs its own HealthMonitor for intra-node faults; this
// monitor federates liveness *across* nodes. A supervisor probes every node
// over its own hardened ControlChannel (GetData on a nonexistent flow — the
// cheapest idempotent round trip; the ack, not the payload, is the liveness
// signal). Node up/down state is mirrored onto the probe channels through
// ClusterRouter::AddNodeStateHook, so a crashed node's probes are dropped at
// the channel's link gate exactly as its fabric frames are dropped at the
// fabric gate.
//
// When a probe exhausts its retries the node is marked degraded and the
// monitor escalates to ClusterControlPlane::SuspectNode, which expires every
// survivor's adjacencies to the node immediately instead of waiting out the
// remainder of the OSPF dead-interval — federated detection beating
// per-adjacency timeouts, with false positives self-correcting on the next
// hello. When probes succeed again the node is re-admitted and the episode
// closes. Every episode is a RecoveryEvent (kNodeFailover / kNodeReadmit)
// with ground-truth fault timestamps taken from the node-state hook, so
// cluster MTTD/MTTR reuse the exact machinery intra-node recovery uses.

#ifndef SRC_HEALTH_CLUSTER_HEALTH_H_
#define SRC_HEALTH_CLUSTER_HEALTH_H_

#include <memory>
#include <vector>

#include "src/cluster/cluster_control.h"
#include "src/cluster/cluster_router.h"
#include "src/health/control_channel.h"
#include "src/health/health_monitor.h"

namespace npr {

struct ClusterHealthConfig {
  // Probe cadence per node; one probe outstanding per node at a time.
  SimTime probe_period_ps = 100 * kPsPerUs;
  // Probe channel timing: snappy on purpose. Worst-case failure declaration
  // (ack_timeout + backoffs across max_attempts) must undercut the OSPF
  // dead-interval, or escalation never beats the per-adjacency timeout.
  SimTime probe_link_delay_ps = 5 * kPsPerUs;
  SimTime probe_ack_timeout_ps = 40 * kPsPerUs;
  SimTime probe_backoff_base_ps = 20 * kPsPerUs;
  int probe_max_attempts = 3;
  uint64_t probe_seed = 0x9ea17ULL;
  // Escalate probe failures to ClusterControlPlane::SuspectNode.
  bool escalate = true;
};

class ClusterHealthMonitor {
 public:
  // Registers the node-state mirror and starts the probe tick. Construct
  // after ClusterControlPlane (escalation needs it), before RunFor.
  ClusterHealthMonitor(ClusterRouter& cluster, ClusterControlPlane& control,
                       ClusterHealthConfig config = ClusterHealthConfig{});

  ClusterHealthMonitor(const ClusterHealthMonitor&) = delete;
  ClusterHealthMonitor& operator=(const ClusterHealthMonitor&) = delete;

  bool node_degraded(int node) const {
    return degraded_[static_cast<size_t>(node)];
  }
  // Planned-maintenance flag (the rolling-upgrade coordinator raises it
  // around each node's shadow/cutover/soak). Probes keep flowing — the node
  // is expected to stay responsive — but a probe failure is absorbed: the
  // node is never marked degraded or escalated to SuspectNode while the
  // flag is set, so an upgrade in progress cannot read as a node death.
  void SetMaintenance(int node, bool on) {
    maintenance_[static_cast<size_t>(node)] = on;
  }
  bool maintenance(int node) const { return maintenance_[static_cast<size_t>(node)]; }
  ControlChannel& probe_channel(int node) {
    return *probes_[static_cast<size_t>(node)].channel;
  }

  // Probe-driven episodes (kNodeFailover paired with kNodeReadmit).
  const std::vector<RecoveryEvent>& events() const { return events_; }

  uint64_t probes_sent() const { return probes_sent_; }
  uint64_t probes_acked() const { return probes_acked_; }
  uint64_t probes_failed() const { return probes_failed_; }
  uint64_t suspects_raised() const { return suspects_raised_; }
  // Probe failures absorbed because the node was under maintenance.
  uint64_t maintenance_absorbed() const { return maintenance_absorbed_; }

 private:
  struct ProbeState {
    std::unique_ptr<ControlChannel> channel;
    uint64_t seq = 0;  // outstanding probe; 0 = none
    SimTime sent_at = 0;
  };

  void Tick();
  void ResolveProbe(int node);
  void OnNodeState(int node, bool up);
  void MarkDegraded(int node);
  void MarkRecovered(int node);
  void CloseFailoverFromRecords();

  ClusterRouter& cluster_;
  ClusterControlPlane& control_;
  ClusterHealthConfig cfg_;

  std::vector<ProbeState> probes_;
  std::vector<bool> degraded_;
  std::vector<bool> maintenance_;
  std::vector<SimTime> node_down_at_;  // ground truth from the state hook
  std::vector<SimTime> node_up_at_;
  std::vector<size_t> failover_event_;  // open kNodeFailover index + 1; 0 = none

  std::vector<RecoveryEvent> events_;
  uint64_t probes_sent_ = 0;
  uint64_t probes_acked_ = 0;
  uint64_t probes_failed_ = 0;
  uint64_t suspects_raised_ = 0;
  uint64_t maintenance_absorbed_ = 0;
};

}  // namespace npr

#endif  // SRC_HEALTH_CLUSTER_HEALTH_H_

#include "src/health/cluster_health.h"

#include "src/fault/fault_plan.h"

namespace npr {

ClusterHealthMonitor::ClusterHealthMonitor(ClusterRouter& cluster,
                                           ClusterControlPlane& control,
                                           ClusterHealthConfig config)
    : cluster_(cluster), control_(control), cfg_(config) {
  const int n = cluster_.num_nodes();
  probes_.resize(static_cast<size_t>(n));
  degraded_.assign(static_cast<size_t>(n), false);
  maintenance_.assign(static_cast<size_t>(n), false);
  node_down_at_.assign(static_cast<size_t>(n), 0);
  node_up_at_.assign(static_cast<size_t>(n), 0);
  failover_event_.assign(static_cast<size_t>(n), 0);
  for (int k = 0; k < n; ++k) {
    ControlChannelConfig cc;
    cc.seed = FaultPlan::DeriveNodeSeed(cfg_.probe_seed, k);
    cc.link_delay_ps = cfg_.probe_link_delay_ps;
    cc.ack_timeout_ps = cfg_.probe_ack_timeout_ps;
    cc.backoff_base_ps = cfg_.probe_backoff_base_ps;
    cc.backoff_jitter = 0.0;
    cc.max_attempts = cfg_.probe_max_attempts;
    // Probe channels are hub residents: their callbacks mutate monitor
    // state, so they must run on the hub engine, not the probed node's
    // shard.
    probes_[static_cast<size_t>(k)].channel =
        std::make_unique<ControlChannel>(cluster_.node(k), cluster_.engine(), cc);
    probes_[static_cast<size_t>(k)].channel->set_link_up(cluster_.node_up(k));
  }
  cluster_.AddNodeStateHook([this](int node, bool up) { OnNodeState(node, up); });
  cluster_.engine().ScheduleIn(cfg_.probe_period_ps, [this] { Tick(); });
}

void ClusterHealthMonitor::Tick() {
  CloseFailoverFromRecords();
  for (int k = 0; k < cluster_.num_nodes(); ++k) {
    ResolveProbe(k);
    ProbeState& p = probes_[static_cast<size_t>(k)];
    if (p.seq == 0) {
      // GetData on fid 0 (never allocated): the ack is the liveness signal,
      // the ok=false payload is irrelevant.
      p.sent_at = cluster_.engine().now();
      p.seq = p.channel->GetData(0);
      probes_sent_ += 1;
    }
  }
  cluster_.engine().ScheduleIn(cfg_.probe_period_ps, [this] { Tick(); });
}

void ClusterHealthMonitor::ResolveProbe(int node) {
  ProbeState& p = probes_[static_cast<size_t>(node)];
  if (p.seq == 0) {
    return;
  }
  if (p.channel->acked(p.seq)) {
    p.seq = 0;
    probes_acked_ += 1;
    if (degraded_[static_cast<size_t>(node)]) {
      MarkRecovered(node);
    }
  } else if (p.channel->failed(p.seq)) {
    p.seq = 0;
    probes_failed_ += 1;
    if (maintenance_[static_cast<size_t>(node)]) {
      // Planned maintenance: the failure is noted but never escalated — an
      // upgrade mid-cutover must not read as a node death.
      maintenance_absorbed_ += 1;
    } else if (!degraded_[static_cast<size_t>(node)]) {
      MarkDegraded(node);
    }
  }
}

void ClusterHealthMonitor::OnNodeState(int node, bool up) {
  const SimTime now = cluster_.engine().now();
  if (up) {
    node_up_at_[static_cast<size_t>(node)] = now;
  } else {
    node_down_at_[static_cast<size_t>(node)] = now;
  }
  // Mirror onto the probe channel: a dead node's control path is hard-down,
  // not merely lossy, so in-flight probes and retries die at the link.
  probes_[static_cast<size_t>(node)].channel->set_link_up(up);
}

void ClusterHealthMonitor::MarkDegraded(int node) {
  const SimTime now = cluster_.engine().now();
  degraded_[static_cast<size_t>(node)] = true;
  // Ground truth when the state hook saw the crash; the probe submission
  // time otherwise (false positives have no crash to attribute).
  SimTime fault_at = probes_[static_cast<size_t>(node)].sent_at;
  if (!cluster_.node_up(node) && node_down_at_[static_cast<size_t>(node)] != 0) {
    fault_at = node_down_at_[static_cast<size_t>(node)];
  }
  events_.push_back({RecoveryEvent::Kind::kNodeFailover, fault_at, now, 0});
  failover_event_[static_cast<size_t>(node)] = events_.size();
  if (cfg_.escalate) {
    suspects_raised_ += 1;
    control_.SuspectNode(node);
  }
}

void ClusterHealthMonitor::MarkRecovered(int node) {
  const SimTime now = cluster_.engine().now();
  degraded_[static_cast<size_t>(node)] = false;
  const size_t open = failover_event_[static_cast<size_t>(node)];
  if (open != 0) {
    RecoveryEvent& ev = events_[open - 1];
    if (ev.recovered_at == 0) {
      ev.recovered_at = now;  // no reconvergence record matched (false alarm)
    }
    failover_event_[static_cast<size_t>(node)] = 0;
  }
  SimTime fault_at = node_up_at_[static_cast<size_t>(node)];
  if (fault_at == 0) {
    fault_at = now;
  }
  events_.push_back({RecoveryEvent::Kind::kNodeReadmit, fault_at, now, now});
}

void ClusterHealthMonitor::CloseFailoverFromRecords() {
  // A failover episode is *recovered* when the survivors finished rerouting
  // (the control plane's matching kNodeDown record closed), not when the
  // dead node eventually returns — readmission is its own episode.
  for (int k = 0; k < cluster_.num_nodes(); ++k) {
    const size_t open = failover_event_[static_cast<size_t>(k)];
    if (open == 0) {
      continue;
    }
    RecoveryEvent& ev = events_[open - 1];
    if (ev.recovered_at != 0) {
      continue;
    }
    for (const ReconvergenceRecord& r : control_.records()) {
      if (r.kind == ReconvergenceRecord::Kind::kNodeDown && r.node == k && r.closed() &&
          r.reconverged_at >= ev.fault_at) {
        ev.recovered_at = r.reconverged_at;
        break;
      }
    }
  }
}

}  // namespace npr

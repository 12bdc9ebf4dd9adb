// Multi-chassis router: the paper's stated next step (§6).
//
// "We next plan to construct a router from four Pentium/IXP pairs connected
// by a Gigabit Ethernet switch. The main difference ... is that we will
// need to budget RI capacity to service packets arriving on the 'internal'
// link, leaving fewer cycles for the VRP."
//
// Each node is a complete Router (Pentium + IXP1200). One port of every
// node (by default the last) is its internal gigabit link into a learning
// switch fabric. Routes are arranged so each node owns the prefixes behind
// its external ports and reaches every other node's prefixes through the
// fabric, addressed by the peer's internal MAC. A cross-node packet is
// therefore forwarded twice — once at the ingress node, once at the egress
// node — exactly as in a real multi-chassis system.
//
// For fault-tolerance experiments the cluster can carry more than one
// fabric plane (`ClusterConfig::internal_links`): each plane is its own
// switch with its own per-node internal port, so a link failure on one
// plane leaves a surviving path for reconvergence to use. Link and node
// state is modelled at the fabric boundary: frames crossing a down link or
// addressed to/from a dead node are dropped there and counted per member.
//
// Every node runs on its own EventQueue (the one its Router owns), and the
// fabric latency is the conservative lookahead window of a ShardGroup
// (src/sim/shard_group.h) that advances the node engines plus a hub engine,
// so node shards can execute a window in parallel while staying
// bit-identical to a single-threaded run. Outbound fabric frames are parked
// in per-node mailboxes during a window and merged onto the hub engine at
// the barrier in (deliver_time, source node, transmit seq) order.

#ifndef SRC_CLUSTER_CLUSTER_ROUTER_H_
#define SRC_CLUSTER_CLUSTER_ROUTER_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/core/router.h"
#include "src/sim/shard_group.h"

namespace npr {

// Why a fabric frame was dropped (beyond "no such member").
enum class FabricDrop : uint8_t { kNone, kLinkDown, kNodeDown, kInjected };

// A functional N-port full-duplex Ethernet switch: frames are delivered to
// the member whose attachment MAC equals the frame's destination. Pacing
// and drops are handled by the attached MacPorts themselves (the fabric is
// non-blocking, as a real gigabit switch effectively is at this scale).
// Every drop is attributed to the transmitting member, so a blackholed
// node is visible per member, not just as a global count.
//
// The fabric itself (gate verdicts, stats, control sinks) runs on the hub
// engine it is constructed with; a frame for a MacPort member is handed to
// that port's own engine at the hub's current time.
class SwitchFabric {
 public:
  struct MemberStats {
    uint64_t forwarded = 0;
    uint64_t unknown_dropped = 0;
    uint64_t link_down_dropped = 0;
    uint64_t node_down_dropped = 0;
    uint64_t injected_dropped = 0;
  };

  explicit SwitchFabric(EventQueue& hub) : hub_(hub) {}

  // Attaches `port` under `mac`: frames addressed to `mac` are injected
  // into the port's wire. The port's own transmissions reach the fabric
  // through SendFrom; wiring its sink is the owner's job.
  void Attach(const MacAddr& mac, MacPort& port);

  // Attaches a frame sink under `mac` with no MacPort behind it — the
  // control plane's receive path. Control frames cross the same fabric and
  // the same gate as data, so a down link starves hellos exactly as it
  // starves traffic. Sinks are called synchronously, on the hub.
  void AttachControlSink(const MacAddr& mac, std::function<void(Packet&&)> sink);

  // Offers a frame to the fabric on behalf of member `src_mac`. Must run on
  // the hub engine.
  void SendFrom(const MacAddr& src_mac, Packet&& packet);

  // Consulted per crossing once the destination member resolves; a verdict
  // other than kNone drops the frame and charges `src_mac`'s stats.
  using Gate = std::function<FabricDrop(const MacAddr& src, const MacAddr& dst)>;
  void set_gate(Gate gate) { gate_ = std::move(gate); }

  uint64_t forwarded() const { return forwarded_; }
  uint64_t unknown_destination() const { return unknown_; }
  uint64_t gate_dropped() const { return gate_dropped_; }
  // Stats charged to the transmitting member (zeroes for unknown MACs).
  MemberStats member_stats(const MacAddr& mac) const;

 private:
  EventQueue& hub_;
  std::map<MacAddr, MacPort*> members_;
  std::map<MacAddr, std::function<void(Packet&&)>> control_sinks_;
  std::map<MacAddr, MemberStats> member_stats_;
  Gate gate_;
  uint64_t forwarded_ = 0;
  uint64_t unknown_ = 0;
  uint64_t gate_dropped_ = 0;
};

// The internal MAC of node `k` on fabric plane `plane` (distinct from the
// per-port convention), and the MAC its control-plane endpoint answers on.
MacAddr ClusterNodeMac(int node, int plane = 0);
MacAddr ClusterControlMac(int node, int plane = 0);

struct ClusterConfig {
  int nodes = 4;
  // Per-node router configuration; the last `internal_links` ports become
  // internal links and are re-rated to 1 Gbps.
  RouterConfig node_config;
  double internal_link_bps = 1e9;
  // Fabric planes. 1 reproduces the single-switch §6 topology; 2 adds a
  // redundant plane so reconvergence has a surviving path after a link
  // failure.
  int internal_links = 1;

  // --- execution (docs/perf.md, "Sharded cluster simulation") ---
  //
  // The store-and-forward fabric: a frame transmitted at t is injected into
  // the destination port at t + fabric_latency_ps. The latency doubles as
  // the conservative lookahead window, so it must be positive, and runs are
  // bit-identical for any `threads` value. 2 µs is a realistic gigabit
  // switch crossing.
  SimTime fabric_latency_ps = 2 * kPsPerUs;
  // Worker threads for the node phase of each window (1 = sequential).
  int threads = 1;
  // Window-width override for lookahead-violation testing; 0 = auto
  // (= fabric_latency_ps). A window wider than the fabric latency breaks
  // the lookahead guarantee and is detected — loudly — at the next merge.
  SimTime window_ps = 0;
};

class ClusterRouter {
 public:
  explicit ClusterRouter(ClusterConfig config);

  // Installs the cluster-wide address plan: destination 10.<g>.0.0/16 is
  // served by external port (g % ports_per_node) of node (g / ports_per_node),
  // where g ranges over all external ports; remote prefixes route through
  // the internal link with the owning node's MAC as next hop.
  void InstallClusterRoutes();
  // Warms every node's fast-path cache for the cluster address plan.
  void WarmRouteCaches();

  void Start();
  void RunFor(SimTime dt) { shard_group_->RunFor(dt); }
  void RunForMs(double ms) { RunFor(static_cast<SimTime>(ms * kPsPerMs)); }
  void StartMeasurement();

  // The hub engine: cluster-global logic (control plane, fault supervisors,
  // federated health, fabric gate) lives here.
  EventQueue& engine() { return engine_; }
  // The engine node `k`'s pipeline runs on (its shard). Per-node traffic
  // drivers and observers belong here.
  EventQueue& node_engine(int k) { return node(k).engine(); }
  SimTime now() const { return shard_group_->now(); }
  // Events executed across the hub and every shard.
  uint64_t TotalEventsRun() const { return shard_group_->events_run(); }
  Router& node(int i) { return *nodes_[static_cast<size_t>(i)]; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_planes() const { return config_.internal_links; }
  int internal_port(int plane = 0) const { return first_internal_port_ + plane; }
  int external_ports_per_node() const { return first_internal_port_; }
  SwitchFabric& fabric(int plane = 0) { return *planes_[static_cast<size_t>(plane)]; }

  // --- link / node state (driven by fault supervisors and health) ---

  // Marks node `k`'s internal link on `plane` up or down. Frames crossing a
  // down link are dropped at the fabric and counted per member.
  void SetLinkUp(int node, int plane, bool up);
  bool link_up(int node, int plane) const {
    return link_up_[static_cast<size_t>(node * num_planes() + plane)];
  }
  // Marks node `k` as crashed (down) or restarted (up). A dead node's
  // frames — data and control, both directions — are dropped at every
  // plane, which is what starves its neighbors' hellos and probes.
  void SetNodeUp(int node, bool up);
  bool node_up(int node) const { return node_up_[static_cast<size_t>(node)]; }

  // Observers called from SetNodeUp (the ClusterHealthMonitor mirrors node
  // state onto its probe channels without the cluster linking npr_health).
  void AddNodeStateHook(std::function<void(int node, bool up)> hook) {
    node_state_hooks_.push_back(std::move(hook));
  }

  // Global external prefix index `g` -> (node, port) and its CIDR string.
  std::pair<int, int> LocateExternal(int g) const;
  std::string ExternalCidr(int g) const;
  uint32_t ExternalDstIp(int g, uint16_t low = 1) const;
  int num_external_ports() const { return num_nodes() * external_ports_per_node(); }

  // Queue-full and overwritten-buffer drops summed across the nodes.
  uint64_t TotalDrops() const;

  ~ClusterRouter();

 private:
  FabricDrop GateFrame(int plane, const MacAddr& src, const MacAddr& dst) const;

  // One node's outbound fabric frames buffered during the current window.
  // Appended only by that node's shard (single-writer), drained only at the
  // barrier (single-reader, phases never overlap) — no locking needed.
  struct FabricMailbox {
    struct Entry {
      SimTime deliver_at = 0;  // tx time + fabric_latency_ps
      int plane = 0;
      uint64_t seq = 0;  // per-source transmit order
      Packet packet;
    };
    std::vector<Entry> entries;
    uint64_t next_seq = 0;
  };

  // Barrier hook: drains every mailbox onto the hub in (deliver_at,
  // src_node, seq) order and aborts on a lookahead violation.
  void MergeMailboxes(SimTime window_start);

  EventQueue engine_;  // the hub
  ClusterConfig config_;
  int first_internal_port_ = 0;
  std::vector<FabricMailbox> mailboxes_;  // one per node
  std::vector<std::unique_ptr<Router>> nodes_;
  std::vector<std::unique_ptr<SwitchFabric>> planes_;
  std::unique_ptr<ShardGroup> shard_group_;
  std::vector<bool> node_up_;
  std::vector<bool> link_up_;  // node * num_planes() + plane
  std::vector<std::function<void(int, bool)>> node_state_hooks_;
};

}  // namespace npr

#endif  // SRC_CLUSTER_CLUSTER_ROUTER_H_

#include "src/cluster/cluster_router.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "src/fault/fault_injector.h"
#include "src/forwarders/native.h"
#include "src/sim/log.h"

namespace npr {

MacAddr ClusterNodeMac(int node, int plane) {
  return MacAddr{0x02, 0x00, 0x00, 0x00, static_cast<uint8_t>(0x01 + plane),
                 static_cast<uint8_t>(node)};
}

MacAddr ClusterControlMac(int node, int plane) {
  return MacAddr{0x02, 0x00, 0x00, 0x00, static_cast<uint8_t>(0x11 + plane),
                 static_cast<uint8_t>(node)};
}

void SwitchFabric::Attach(const MacAddr& mac, MacPort& port) {
  members_[mac] = &port;
  member_stats_[mac];
}

void SwitchFabric::AttachControlSink(const MacAddr& mac, std::function<void(Packet&&)> sink) {
  control_sinks_[mac] = std::move(sink);
  member_stats_[mac];
}

SwitchFabric::MemberStats SwitchFabric::member_stats(const MacAddr& mac) const {
  auto it = member_stats_.find(mac);
  return it == member_stats_.end() ? MemberStats{} : it->second;
}

void SwitchFabric::SendFrom(const MacAddr& src_mac, Packet&& packet) {
  MemberStats& stats = member_stats_[src_mac];
  auto eth = EthernetHeader::Parse(packet.bytes());
  if (!eth) {
    ++unknown_;
    ++stats.unknown_dropped;
    return;
  }
  auto member = members_.find(eth->dst);
  auto control = control_sinks_.end();
  if (member == members_.end()) {
    control = control_sinks_.find(eth->dst);
    if (control == control_sinks_.end()) {
      ++unknown_;
      ++stats.unknown_dropped;
      return;
    }
  }
  if (gate_) {
    switch (gate_(src_mac, eth->dst)) {
      case FabricDrop::kNone:
        break;
      case FabricDrop::kLinkDown:
        ++gate_dropped_;
        ++stats.link_down_dropped;
        return;
      case FabricDrop::kNodeDown:
        ++gate_dropped_;
        ++stats.node_down_dropped;
        return;
      case FabricDrop::kInjected:
        ++gate_dropped_;
        ++stats.injected_dropped;
        return;
    }
  }
  ++forwarded_;
  ++stats.forwarded;
  if (member != members_.end()) {
    // The destination port lives on its node's shard, which sits at (or
    // before) the hub's clock — hand the frame to its engine instead of
    // touching the port from here.
    MacPort* port = member->second;
    port->engine().Schedule(hub_.now(), [port, p = std::move(packet)]() mutable {
      port->InjectFromWire(std::move(p));
    });
  } else {
    control->second(std::move(packet));
  }
}

ClusterRouter::ClusterRouter(ClusterConfig config) : config_(std::move(config)) {
  assert(config_.nodes >= 2);
  assert(config_.internal_links >= 1);
  RouterConfig node_cfg = config_.node_config;
  assert(!node_cfg.port_rates_bps.empty());
  assert(node_cfg.num_ports() > config_.internal_links);
  first_internal_port_ = node_cfg.num_ports() - config_.internal_links;
  // The internal link is gigabit (§6); budgeting RI capacity for it is the
  // paper's stated consequence — visible here as the extra load the
  // internal port's traffic puts on the ingress/egress pipelines.
  for (int plane = 0; plane < config_.internal_links; ++plane) {
    node_cfg.port_rates_bps[static_cast<size_t>(first_internal_port_ + plane)] =
        config_.internal_link_bps;
  }

  planes_.reserve(static_cast<size_t>(config_.internal_links));
  for (int plane = 0; plane < config_.internal_links; ++plane) {
    planes_.push_back(std::make_unique<SwitchFabric>(engine_));
    planes_.back()->set_gate([this, plane](const MacAddr& src, const MacAddr& dst) {
      return GateFrame(plane, src, dst);
    });
  }

  node_up_.assign(static_cast<size_t>(config_.nodes), true);
  link_up_.assign(static_cast<size_t>(config_.nodes * config_.internal_links), true);

  mailboxes_.resize(static_cast<size_t>(config_.nodes));
  nodes_.reserve(static_cast<size_t>(config_.nodes));
  for (int k = 0; k < config_.nodes; ++k) {
    RouterConfig cfg_k = node_cfg;
    if (cfg_k.fault_plan.Any()) {
      // Node k's injector stream must be independent of node j's and a pure
      // function of (base seed, node); see FaultPlan::DeriveNodeSeed.
      cfg_k.fault_plan.seed = FaultPlan::DeriveNodeSeed(node_cfg.fault_plan.seed, k);
    }
    nodes_.push_back(std::make_unique<Router>(cfg_k));
    nodes_.back()->SetExceptionHandler(std::make_unique<FullIpForwarder>());
    for (int plane = 0; plane < config_.internal_links; ++plane) {
      MacPort& port = nodes_.back()->port(first_internal_port_ + plane);
      planes_[static_cast<size_t>(plane)]->Attach(ClusterNodeMac(k, plane), port);
      // The transmit side runs on node k's shard, so the sink must only
      // touch k-local state: it timestamps the frame with the fabric latency
      // and parks it in k's mailbox. The barrier offers it to the fabric (on
      // the hub) in deterministic order.
      port.SetSink([this, k, plane](Packet&& packet) {
        FabricMailbox& mb = mailboxes_[static_cast<size_t>(k)];
        mb.entries.push_back(FabricMailbox::Entry{
            node_engine(k).now() + config_.fabric_latency_ps, plane, mb.next_seq++,
            std::move(packet)});
      });
    }
  }

  std::vector<EventQueue*> shards;
  shards.reserve(nodes_.size());
  for (auto& n : nodes_) {
    shards.push_back(&n->engine());
  }
  // A zero fabric latency leaves no lookahead: ShardGroup refuses the window.
  const SimTime window = config_.window_ps > 0 ? config_.window_ps : config_.fabric_latency_ps;
  shard_group_ =
      std::make_unique<ShardGroup>(&engine_, std::move(shards), window, config_.threads);
  shard_group_->set_merge_hook([this](SimTime window_start) { MergeMailboxes(window_start); });
}

void ClusterRouter::MergeMailboxes(SimTime window_start) {
  // Flatten all mailboxes, then impose the deterministic total order
  // (deliver_at, src_node, seq): the hub's (time, insertion-seq) FIFO then
  // replays them identically no matter how many threads filled the boxes.
  struct Merged {
    SimTime deliver_at;
    int src_node;
    uint64_t seq;
    int plane;
    Packet packet;
  };
  std::vector<Merged> merged;
  size_t total = 0;
  for (const FabricMailbox& mb : mailboxes_) {
    total += mb.entries.size();
  }
  merged.reserve(total);
  for (int k = 0; k < num_nodes(); ++k) {
    FabricMailbox& mb = mailboxes_[static_cast<size_t>(k)];
    for (FabricMailbox::Entry& e : mb.entries) {
      merged.push_back(Merged{e.deliver_at, k, e.seq, e.plane, std::move(e.packet)});
    }
    mb.entries.clear();
  }
  std::sort(merged.begin(), merged.end(), [](const Merged& a, const Merged& b) {
    if (a.deliver_at != b.deliver_at) {
      return a.deliver_at < b.deliver_at;
    }
    if (a.src_node != b.src_node) {
      return a.src_node < b.src_node;
    }
    return a.seq < b.seq;
  });
  for (Merged& e : merged) {
    if (e.deliver_at < window_start) {
      // A frame due before the window we are about to run: the window was
      // wider than the fabric latency, so shards already simulated past its
      // delivery time. Silently reordering it would be a nondeterminism
      // bug — fail loudly instead (and see ClusterConfig::window_ps).
      NPR_ERROR(
          "lookahead violation: frame from node %d due at %lld ps, window starts at %lld ps "
          "(window wider than fabric latency?)",
          e.src_node, static_cast<long long>(e.deliver_at),
          static_cast<long long>(window_start));
      std::abort();
    }
    engine_.Schedule(e.deliver_at,
                     [this, plane = e.plane, src = ClusterNodeMac(e.src_node, e.plane),
                      p = std::move(e.packet)]() mutable {
                       planes_[static_cast<size_t>(plane)]->SendFrom(src, std::move(p));
                     });
  }
}

ClusterRouter::~ClusterRouter() {
  // Pending hub events reference the member routers; drop them before the
  // nodes are destroyed. Each router then clears its own engine. Frames
  // crossing between nodes are heap copies (MacPort hands its sink one), so
  // no node's pending events hold another node's pooled buffers.
  engine_.Clear();
}

FabricDrop ClusterRouter::GateFrame(int plane, const MacAddr& src, const MacAddr& dst) const {
  // Attachment MACs carry the node index in their last byte (both the data
  // and the control convention), so the gate resolves membership directly.
  const int src_node = src[5];
  const int dst_node = dst[5];
  if (!node_up_[static_cast<size_t>(src_node)] || !node_up_[static_cast<size_t>(dst_node)]) {
    return FabricDrop::kNodeDown;
  }
  if (!link_up(src_node, plane) || !link_up(dst_node, plane)) {
    return FabricDrop::kLinkDown;
  }
  FaultInjector* fault = nodes_[static_cast<size_t>(src_node)]->fault_injector();
  if (fault != nullptr && fault->ShouldDropFabricFrame()) {
    return FabricDrop::kInjected;
  }
  return FabricDrop::kNone;
}

void ClusterRouter::SetLinkUp(int node, int plane, bool up) {
  link_up_[static_cast<size_t>(node * num_planes() + plane)] = up;
}

void ClusterRouter::SetNodeUp(int node, bool up) {
  if (node_up_[static_cast<size_t>(node)] == up) {
    return;
  }
  node_up_[static_cast<size_t>(node)] = up;
  for (const auto& hook : node_state_hooks_) {
    hook(node, up);
  }
}

std::pair<int, int> ClusterRouter::LocateExternal(int g) const {
  return {g / external_ports_per_node(), g % external_ports_per_node()};
}

std::string ClusterRouter::ExternalCidr(int g) const {
  return "10." + std::to_string(g) + ".0.0/16";
}

uint32_t ClusterRouter::ExternalDstIp(int g, uint16_t low) const {
  return 0x0a000000u | static_cast<uint32_t>(g) << 16 | low;
}

void ClusterRouter::InstallClusterRoutes() {
  for (int g = 0; g < num_external_ports(); ++g) {
    const auto [owner, port] = LocateExternal(g);
    const auto prefix = *Prefix::Parse(ExternalCidr(g));
    for (int k = 0; k < num_nodes(); ++k) {
      RouteEntry entry;
      if (k == owner) {
        entry.out_port = static_cast<uint8_t>(port);
        entry.next_hop_mac = PortMac(static_cast<uint8_t>(port));
      } else {
        // Remote prefix: egress on the internal link, addressed to the
        // owning node's fabric MAC.
        entry.out_port = static_cast<uint8_t>(internal_port());
        entry.next_hop_mac = ClusterNodeMac(owner);
      }
      node(k).route_table().AddRoute(prefix, entry);
    }
  }
  WarmRouteCaches();
}

void ClusterRouter::WarmRouteCaches() {
  for (int k = 0; k < num_nodes(); ++k) {
    for (int g = 0; g < num_external_ports(); ++g) {
      for (uint16_t low = 1; low <= 16; ++low) {
        const uint32_t dst = ExternalDstIp(g, low);
        auto hit = node(k).route_table().Lookup(dst);
        if (hit.entry) {
          node(k).route_cache().Insert(dst, *hit.entry, node(k).route_table().epoch());
        }
      }
    }
  }
}

void ClusterRouter::Start() {
  for (auto& n : nodes_) {
    n->Start();
  }
}

void ClusterRouter::StartMeasurement() {
  for (auto& n : nodes_) {
    n->StartMeasurement();
  }
}

uint64_t ClusterRouter::TotalDrops() const {
  uint64_t total = 0;
  for (const auto& n : nodes_) {
    total += n->stats().dropped_queue_full + n->stats().lost_overwritten;
  }
  return total;
}

}  // namespace npr

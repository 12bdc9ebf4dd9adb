// Tests for the multi-chassis router (§6 future work): switch fabric
// delivery, cluster route plan, cross-node forwarding semantics, isolation.

#include <gtest/gtest.h>

#include "src/cluster/cluster_router.h"
#include "src/net/traffic_gen.h"

namespace npr {
namespace {

TEST(SwitchFabric, DeliversByDestinationMac) {
  EventQueue engine;
  MacPort a(engine, 0, 1e9);
  MacPort b(engine, 1, 1e9);
  SwitchFabric fabric(engine);
  fabric.Attach(ClusterNodeMac(0), a);
  fabric.Attach(ClusterNodeMac(1), b);

  PacketSpec spec;
  spec.eth_dst = ClusterNodeMac(1);
  fabric.SendFrom(ClusterNodeMac(0), BuildPacket(spec));
  EXPECT_EQ(fabric.forwarded(), 1u);
  // Delivery is an event on the destination port's engine, not a call.
  EXPECT_FALSE(b.RxReady());
  engine.RunAll();
  EXPECT_TRUE(b.RxReady());
  EXPECT_FALSE(a.RxReady());
}

TEST(SwitchFabric, UnknownMacCounted) {
  EventQueue engine;
  MacPort a(engine, 0, 1e9);
  SwitchFabric fabric(engine);
  fabric.Attach(ClusterNodeMac(0), a);
  PacketSpec spec;
  spec.eth_dst = ClusterNodeMac(7);  // nobody home
  fabric.SendFrom(ClusterNodeMac(0), BuildPacket(spec));
  engine.RunAll();
  EXPECT_EQ(fabric.forwarded(), 0u);
  EXPECT_EQ(fabric.unknown_destination(), 1u);
  // The drop is charged to the transmitting member: a node whose FIB points
  // at a MAC nobody answers on is identifiable, not just a global count.
  EXPECT_EQ(fabric.member_stats(ClusterNodeMac(0)).unknown_dropped, 1u);
  EXPECT_EQ(fabric.member_stats(ClusterNodeMac(7)).unknown_dropped, 0u);
}

TEST(SwitchFabric, GateDropsChargeTransmittingMember) {
  EventQueue engine;
  MacPort a(engine, 0, 1e9);
  MacPort b(engine, 1, 1e9);
  SwitchFabric fabric(engine);
  fabric.Attach(ClusterNodeMac(0), a);
  fabric.Attach(ClusterNodeMac(1), b);
  FabricDrop verdict = FabricDrop::kNone;
  fabric.set_gate([&](const MacAddr&, const MacAddr&) { return verdict; });

  auto send = [&] {
    PacketSpec spec;
    spec.eth_dst = ClusterNodeMac(1);
    fabric.SendFrom(ClusterNodeMac(0), BuildPacket(spec));
    engine.RunAll();
  };
  send();
  verdict = FabricDrop::kLinkDown;
  send();
  verdict = FabricDrop::kNodeDown;
  send();
  verdict = FabricDrop::kInjected;
  send();

  const SwitchFabric::MemberStats ms = fabric.member_stats(ClusterNodeMac(0));
  EXPECT_EQ(ms.forwarded, 1u);
  EXPECT_EQ(ms.link_down_dropped, 1u);
  EXPECT_EQ(ms.node_down_dropped, 1u);
  EXPECT_EQ(ms.injected_dropped, 1u);
  EXPECT_EQ(fabric.forwarded(), 1u);
  EXPECT_EQ(fabric.gate_dropped(), 3u);
  // The receiving member transmitted nothing and is charged nothing.
  EXPECT_EQ(fabric.member_stats(ClusterNodeMac(1)).forwarded, 0u);
}

TEST(SwitchFabric, ControlSinkCrossesTheSameGate) {
  EventQueue engine;
  SwitchFabric fabric(engine);
  int got = 0;
  fabric.AttachControlSink(ClusterControlMac(1), [&](Packet&&) { ++got; });

  PacketSpec spec;
  spec.eth_dst = ClusterControlMac(1);
  fabric.SendFrom(ClusterControlMac(0), BuildPacket(spec));
  EXPECT_EQ(got, 1);
  // A down link starves control frames exactly as it starves data.
  fabric.set_gate([](const MacAddr&, const MacAddr&) { return FabricDrop::kLinkDown; });
  fabric.SendFrom(ClusterControlMac(0), BuildPacket(spec));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(fabric.member_stats(ClusterControlMac(0)).link_down_dropped, 1u);
  EXPECT_EQ(fabric.member_stats(ClusterControlMac(0)).forwarded, 1u);
}

class ClusterTest : public ::testing::Test {
 protected:
  std::unique_ptr<ClusterRouter> MakeCluster(int nodes = 2) {
    ClusterConfig cfg;
    cfg.nodes = nodes;
    auto cluster = std::make_unique<ClusterRouter>(std::move(cfg));
    cluster->InstallClusterRoutes();
    // Sinks on every external port of every node.
    for (int k = 0; k < cluster->num_nodes(); ++k) {
      for (int p = 0; p < cluster->external_ports_per_node(); ++p) {
        cluster->node(k).port(p).SetSink([this, k, p](Packet&& packet) {
          deliveries_[{k, p}] += 1;
          last_ = std::move(packet);
        });
      }
    }
    return cluster;
  }

  std::map<std::pair<int, int>, uint64_t> deliveries_;
  std::optional<Packet> last_;
};

TEST_F(ClusterTest, AddressPlanShape) {
  auto cluster = MakeCluster(4);
  EXPECT_EQ(cluster->internal_port(), 7);
  EXPECT_EQ(cluster->external_ports_per_node(), 7);
  EXPECT_EQ(cluster->num_external_ports(), 28);
  EXPECT_EQ(cluster->LocateExternal(0), (std::pair<int, int>{0, 0}));
  EXPECT_EQ(cluster->LocateExternal(9), (std::pair<int, int>{1, 2}));
  EXPECT_EQ(cluster->ExternalCidr(9), "10.9.0.0/16");
  // The internal link runs at 1 Gbps.
  EXPECT_DOUBLE_EQ(cluster->node(0).port(7).bits_per_sec(), 1e9);
}

TEST_F(ClusterTest, LocalTrafficStaysLocal) {
  auto cluster = MakeCluster(2);
  cluster->Start();
  PacketSpec spec;
  spec.dst_ip = cluster->ExternalDstIp(2, 1);  // node 0, port 2
  cluster->node(0).port(0).InjectFromWire(BuildPacket(spec));
  cluster->RunForMs(2.0);
  EXPECT_EQ((deliveries_[{0, 2}]), 1u);
  EXPECT_EQ(cluster->fabric().forwarded(), 0u) << "local traffic must not cross the fabric";
}

TEST_F(ClusterTest, CrossNodeTrafficTraversesFabric) {
  auto cluster = MakeCluster(2);
  cluster->Start();
  PacketSpec spec;
  spec.dst_ip = cluster->ExternalDstIp(10, 1);  // node 1, port 3
  spec.ttl = 64;
  Packet p = BuildPacket(spec);
  p.set_id(4242);
  cluster->node(0).port(0).InjectFromWire(std::move(p));
  cluster->RunForMs(3.0);

  ASSERT_EQ((deliveries_[{1, 3}]), 1u);
  EXPECT_EQ(cluster->fabric().forwarded(), 1u);
  ASSERT_TRUE(last_);
  EXPECT_EQ(last_->id(), 4242u);
  // Two IP hops: TTL decremented twice, checksum still valid at egress.
  auto ip = Ipv4Header::Parse(last_->l3());
  ASSERT_TRUE(ip);
  EXPECT_EQ(ip->ttl, 62);
  EXPECT_TRUE(Ipv4Header::Validate(last_->l3()));
  // Egress MACs belong to the egress node's port.
  auto eth = EthernetHeader::Parse(last_->bytes());
  EXPECT_EQ(eth->src, PortMac(3));
}

TEST_F(ClusterTest, AllPairsReachability) {
  auto cluster = MakeCluster(4);
  cluster->Start();
  // One probe from node i's port 0 to every external prefix.
  int sent = 0;
  for (int i = 0; i < 4; ++i) {
    for (int g = 0; g < cluster->num_external_ports(); ++g) {
      PacketSpec spec;
      spec.dst_ip = cluster->ExternalDstIp(g, 2);
      spec.src_ip = SrcIpForPort(static_cast<uint8_t>(i), 1);
      cluster->node(i).port(0).InjectFromWire(BuildPacket(spec));
      ++sent;
    }
  }
  cluster->RunForMs(8.0);
  uint64_t received = 0;
  for (const auto& [where, count] : deliveries_) {
    received += count;
  }
  EXPECT_EQ(received, static_cast<uint64_t>(sent));
  EXPECT_EQ(cluster->TotalDrops(), 0u);
}

TEST_F(ClusterTest, DeadNodeDropsAtFabricAndRecovers) {
  auto cluster = MakeCluster(2);
  cluster->Start();
  cluster->SetNodeUp(1, false);

  PacketSpec spec;
  spec.dst_ip = cluster->ExternalDstIp(10, 1);  // node 1, port 3
  cluster->node(0).port(0).InjectFromWire(BuildPacket(spec));
  cluster->RunForMs(3.0);
  EXPECT_EQ((deliveries_[{1, 3}]), 0u);
  EXPECT_EQ(cluster->fabric().gate_dropped(), 1u);
  EXPECT_EQ(cluster->fabric().member_stats(ClusterNodeMac(0)).node_down_dropped, 1u);

  // Warm restart: the same flow delivers again, nothing lingers down.
  cluster->SetNodeUp(1, true);
  cluster->node(0).port(0).InjectFromWire(BuildPacket(spec));
  cluster->RunForMs(3.0);
  EXPECT_EQ((deliveries_[{1, 3}]), 1u);
}

TEST_F(ClusterTest, DownLinkDropsCountedPerMember) {
  auto cluster = MakeCluster(2);
  cluster->Start();
  cluster->SetLinkUp(0, 0, false);

  PacketSpec spec;
  spec.dst_ip = cluster->ExternalDstIp(10, 1);
  cluster->node(0).port(0).InjectFromWire(BuildPacket(spec));
  cluster->RunForMs(3.0);
  EXPECT_EQ((deliveries_[{1, 3}]), 0u);
  EXPECT_EQ(cluster->fabric().member_stats(ClusterNodeMac(0)).link_down_dropped, 1u);

  cluster->SetLinkUp(0, 0, true);
  cluster->node(0).port(0).InjectFromWire(BuildPacket(spec));
  cluster->RunForMs(3.0);
  EXPECT_EQ((deliveries_[{1, 3}]), 1u);
}

TEST_F(ClusterTest, SustainsExternalLineRatePlusInternalTraffic) {
  // Every node takes line rate on one external port, half of it remote:
  // the internal gigabit link and both pipelines absorb it without loss
  // (the §6 concern: RI capacity must cover the internal link).
  auto cluster = MakeCluster(2);
  cluster->Start();
  std::vector<std::unique_ptr<TrafficGen>> gens;
  for (int k = 0; k < 2; ++k) {
    TrafficSpec spec;
    spec.rate_pps = 141'000;
    spec.pattern = TrafficSpec::DstPattern::kSinglePort;
    // Node 0 sends to node 1's prefix 10.8/16 and vice versa -> all remote.
    spec.single_dst_port = static_cast<uint8_t>(k == 0 ? 8 : 1);
    // Per-node traffic runs on that node's shard, not on the hub.
    gens.push_back(std::make_unique<TrafficGen>(cluster->node_engine(k),
                                                cluster->node(k).port(0), spec,
                                                static_cast<uint64_t>(k + 5)));
    gens.back()->Start(12 * kPsPerMs);
  }
  cluster->RunForMs(2.0);
  cluster->StartMeasurement();
  cluster->RunForMs(8.0);
  uint64_t received = 0;
  for (const auto& [where, count] : deliveries_) {
    received += count;
  }
  EXPECT_GT(received, 2'000u);
  EXPECT_EQ(cluster->TotalDrops(), 0u);
  EXPECT_GT(cluster->fabric().forwarded(), 2'000u);
}

}  // namespace
}  // namespace npr

// Integration tests: the complete router — real packets in, real packets
// out — covering the fast path, the exception paths through the StrongARM
// and Pentium, the install/remove/getdata/setdata interface, the control
// plane, and the robustness properties of Section 4.

#include <gtest/gtest.h>

#include <map>

#include "src/control/ospf_lite.h"
#include "src/core/router.h"
#include "src/fault/router_invariants.h"
#include "src/forwarders/control.h"
#include "src/forwarders/native.h"
#include "src/forwarders/vrp_programs.h"
#include "src/net/tcp.h"
#include "src/net/traffic_gen.h"
#include "src/vrp/assembler.h"

namespace npr {
namespace {

struct Received {
  std::vector<Packet> packets;
  std::map<int, uint64_t> per_port;
};

class RouterTest : public ::testing::Test {
 protected:
  // Builds a real-port router with 10.<p>/16 -> port p routes and sinks
  // capturing egress traffic.
  std::unique_ptr<Router> MakeRouter(RouterConfig cfg = RouterConfig{}) {
    auto router = std::make_unique<Router>(std::move(cfg));
    for (int p = 0; p < router->num_ports(); ++p) {
      router->AddRoute("10." + std::to_string(p) + ".0.0/16", static_cast<uint8_t>(p));
      router->port(p).SetSink([this, p](Packet&& packet) {
        received_.per_port[p] += 1;
        if (received_.packets.size() < 4096) {
          received_.packets.push_back(std::move(packet));
        }
      });
    }
    router->SetExceptionHandler(std::make_unique<FullIpForwarder>());
    router->WarmRouteCache(64);
    return router;
  }

  // Structural health check run at the end of a test, after traffic has
  // drained. Conservation is skipped automatically for runs that opened a
  // measurement window.
  static void ExpectInvariants(Router& router) {
    const InvariantReport inv = RouterInvariants::CheckAll(router);
    EXPECT_TRUE(inv.ok()) << inv.ToString();
  }

  Received received_;
};

TEST_F(RouterTest, ForwardsPacketsCorrectly) {
  auto router = MakeRouter();
  router->Start();

  PacketSpec spec;
  spec.dst_ip = DstIpForPort(3, 7);
  spec.src_ip = SrcIpForPort(0, 1);
  spec.ttl = 17;
  spec.protocol = kIpProtoTcp;
  spec.frame_bytes = 64;
  Packet sent = BuildPacket(spec);
  sent.set_id(1001);
  router->port(0).InjectFromWire(std::move(sent));
  router->RunForMs(1.0);

  ASSERT_EQ(received_.per_port[3], 1u) << "packet must leave on the routed port";
  const Packet& got = received_.packets.at(0);
  EXPECT_EQ(got.id(), 1001u);
  EXPECT_EQ(got.size(), 64u);

  // Minimal IP semantics: TTL decremented, checksum still valid, MACs
  // rewritten for the egress link.
  EXPECT_TRUE(Ipv4Header::Validate(got.l3()));
  auto ip = Ipv4Header::Parse(got.l3());
  EXPECT_EQ(ip->ttl, 16);
  EXPECT_EQ(ip->dst, spec.dst_ip);
  auto eth = EthernetHeader::Parse(got.bytes());
  EXPECT_EQ(eth->src, PortMac(3));
  EXPECT_EQ(eth->dst, PortMac(3));  // next hop MAC per route convention
  EXPECT_EQ(router->stats().forwarded, 1u);
  ExpectInvariants(*router);
}

TEST_F(RouterTest, PayloadSurvivesDramRoundTrip) {
  auto router = MakeRouter();
  router->Start();
  PacketSpec spec;
  spec.dst_ip = DstIpForPort(2, 5);
  spec.frame_bytes = 300;  // multi-MP
  Packet sent = BuildPacket(spec);
  const std::vector<uint8_t> original(sent.bytes().begin(), sent.bytes().end());
  router->port(1).InjectFromWire(std::move(sent));
  router->RunForMs(1.0);

  ASSERT_EQ(received_.packets.size(), 1u);
  const Packet& got = received_.packets[0];
  ASSERT_EQ(got.size(), original.size());
  // Payload beyond the rewritten headers must be byte-identical.
  for (size_t i = kEthHeaderBytes + kIpv4MinHeaderBytes; i < original.size(); ++i) {
    ASSERT_EQ(got.bytes()[i], original[i]) << "payload corrupted at byte " << i;
  }
  ExpectInvariants(*router);
}

TEST_F(RouterTest, SustainsLineRateWithoutLoss) {
  // §3.5.1: 8 x 141 Kpps of 64-byte packets = 1.128 Mpps, zero loss.
  auto router = MakeRouter();
  router->Start();
  std::vector<std::unique_ptr<TrafficGen>> gens;
  for (int p = 0; p < 8; ++p) {
    TrafficSpec spec;
    spec.rate_pps = 141'000;
    gens.push_back(std::make_unique<TrafficGen>(router->engine(), router->port(p), spec,
                                                static_cast<uint64_t>(900 + p)));
    gens.back()->Start(15 * kPsPerMs);
  }
  router->RunForMs(3.0);
  router->StartMeasurement();
  router->RunForMs(10.0);

  EXPECT_NEAR(router->ForwardingRateMpps(), 1.128, 0.03);
  EXPECT_EQ(router->stats().dropped_queue_full, 0u);
  EXPECT_EQ(router->stats().lost_overwritten, 0u);
  uint64_t rx_drops = 0;
  for (int p = 0; p < 8; ++p) {
    rx_drops += router->port(p).rx_dropped();
  }
  EXPECT_EQ(rx_drops, 0u);
  router->RunForMs(4.0);  // drain
  ExpectInvariants(*router);
}

TEST_F(RouterTest, OptionPacketsTakeStrongArmPathAndGetProcessed) {
  auto router = MakeRouter();
  router->Start();
  PacketSpec spec;
  spec.dst_ip = DstIpForPort(4, 2);
  spec.ip_options = {0x01, 0x01, 0x01, 0x00};  // no-ops
  router->port(0).InjectFromWire(BuildPacket(spec));
  router->RunForMs(2.0);

  EXPECT_EQ(router->stats().exceptional, 1u);
  EXPECT_EQ(router->stats().sa_local_processed, 1u);
  ASSERT_EQ(received_.per_port[4], 1u) << "exceptional packet still delivered";
  auto ip = Ipv4Header::Parse(received_.packets.at(0).l3());
  EXPECT_EQ(ip->ttl, 63);  // full IP decremented it
  EXPECT_TRUE(Ipv4Header::Validate(received_.packets.at(0).l3()));
  ExpectInvariants(*router);
}

TEST_F(RouterTest, RouteMissResolvesViaSlowPathThenFastPath) {
  auto router = MakeRouter();
  router->Start();
  PacketSpec spec;
  spec.dst_ip = DstIpForPort(5, 200);  // routable, outside the warmed set
  router->port(0).InjectFromWire(BuildPacket(spec));
  router->RunForMs(2.0);
  EXPECT_EQ(router->stats().exceptional, 1u);
  EXPECT_EQ(received_.per_port[5], 1u);

  // Second packet to the same destination: the StrongARM warmed the cache,
  // so it must take the fast path.
  router->port(0).InjectFromWire(BuildPacket(spec));
  router->RunForMs(2.0);
  EXPECT_EQ(router->stats().exceptional, 1u) << "second packet should hit the route cache";
  EXPECT_EQ(received_.per_port[5], 2u);
  ExpectInvariants(*router);
}

TEST_F(RouterTest, UnroutablePacketAnsweredWithIcmp) {
  auto router = MakeRouter();
  router->Start();
  PacketSpec spec;
  spec.dst_ip = 0xc0000001;  // 192.0.0.1: no route
  spec.src_ip = DstIpForPort(4, 9);  // source reachable via port 4
  router->port(0).InjectFromWire(BuildPacket(spec));
  router->RunForMs(2.0);
  // The offending packet is not delivered anywhere; the only forwarded
  // packet is the ICMP destination-unreachable back toward the source.
  EXPECT_EQ(router->stats().icmp_generated, 1u);
  EXPECT_EQ(router->stats().forwarded, 1u);
  ASSERT_EQ(received_.per_port[4], 1u);
  auto ip = Ipv4Header::Parse(received_.packets.at(0).l3());
  ASSERT_TRUE(ip);
  EXPECT_EQ(ip->protocol, kIpProtoIcmp);
  ExpectInvariants(*router);
}

TEST_F(RouterTest, CorruptPacketsDropped) {
  auto router = MakeRouter();
  router->Start();
  PacketSpec spec;
  spec.dst_ip = DstIpForPort(1, 1);
  Packet p = BuildPacket(spec);
  p.bytes()[20] ^= 0xff;  // corrupt the IP header
  router->port(0).InjectFromWire(std::move(p));
  router->RunForMs(1.0);
  EXPECT_EQ(router->stats().dropped_invalid, 1u);
  EXPECT_EQ(router->stats().forwarded, 0u);
  ExpectInvariants(*router);
}

// --- install / remove / getdata / setdata (§4.5) ---

TEST_F(RouterTest, InstalledPortFilterDropsMatchingTraffic) {
  auto router = MakeRouter();
  router->Start();

  VrpProgram filter = BuildPortFilter();
  InstallRequest req;
  req.key = FlowKey::All();
  req.where = Where::kMicroEngine;
  req.program = &filter;
  auto outcome = router->Install(req);
  ASSERT_TRUE(outcome.ok) << outcome.error;

  // Block destination ports [8000, 8999].
  auto state = router->GetData(outcome.fid);
  ASSERT_GE(state.size(), 4u);
  const uint32_t range = 8000u << 16 | 8999;
  std::memcpy(state.data(), &range, 4);
  ASSERT_TRUE(router->SetData(outcome.fid, state));

  PacketSpec blocked;
  blocked.dst_ip = DstIpForPort(2, 1);
  blocked.protocol = kIpProtoTcp;
  blocked.dst_port = 8080;
  PacketSpec allowed = blocked;
  allowed.dst_port = 443;
  router->port(0).InjectFromWire(BuildPacket(blocked));
  router->port(0).InjectFromWire(BuildPacket(allowed));
  router->RunForMs(1.0);

  EXPECT_EQ(router->stats().dropped_by_vrp, 1u);
  EXPECT_EQ(received_.per_port[2], 1u);

  // Removing the filter restores the blocked traffic.
  ASSERT_TRUE(router->Remove(outcome.fid));
  router->port(0).InjectFromWire(BuildPacket(blocked));
  router->RunForMs(1.0);
  EXPECT_EQ(received_.per_port[2], 2u);
  ExpectInvariants(*router);
}

TEST_F(RouterTest, GeneralExceptDivertsToStrongArm) {
  // A general (ALL-keyed) MicroEngine forwarder's `except` diverts the
  // packet to the StrongARM as a per-flow program's does, and the
  // StrongARM forwards it on.
  auto router = MakeRouter();
  auto divert = Assemble("divert", "except\n");
  ASSERT_TRUE(divert.ok);
  InstallRequest req;
  req.key = FlowKey::All();
  req.where = Where::kMicroEngine;
  req.program = &divert.program;
  ASSERT_TRUE(router->Install(req).ok);
  router->Start();
  PacketSpec spec;
  spec.dst_ip = DstIpForPort(2, 1);
  router->port(0).InjectFromWire(BuildPacket(spec));
  router->RunForMs(2.0);
  EXPECT_EQ(router->stats().exceptional, 1u);
  EXPECT_EQ(router->stats().sa_local_processed, 1u);
  EXPECT_EQ(received_.per_port[2], 1u);
  ExpectInvariants(*router);
}

TEST_F(RouterTest, SynMonitorCountsReadableViaGetData) {
  auto router = MakeRouter();
  router->Start();

  VrpProgram monitor = BuildSynMonitor();
  InstallRequest req;
  req.key = FlowKey::All();
  req.where = Where::kMicroEngine;
  req.program = &monitor;
  auto outcome = router->Install(req);
  ASSERT_TRUE(outcome.ok) << outcome.error;

  PacketSpec syn;
  syn.dst_ip = DstIpForPort(1, 1);
  syn.protocol = kIpProtoTcp;
  syn.tcp_flags = kTcpFlagSyn;
  PacketSpec normal = syn;
  normal.tcp_flags = kTcpFlagAck;
  for (int i = 0; i < 5; ++i) {
    router->port(0).InjectFromWire(BuildPacket(syn));
  }
  for (int i = 0; i < 3; ++i) {
    router->port(0).InjectFromWire(BuildPacket(normal));
  }
  router->RunForMs(1.0);

  auto state = router->GetData(outcome.fid);
  ASSERT_GE(state.size(), 4u);
  uint32_t count;
  std::memcpy(&count, state.data(), 4);
  EXPECT_EQ(count, 5u);
  EXPECT_EQ(received_.per_port[1], 8u) << "monitoring must not drop anything";
  ExpectInvariants(*router);
}

TEST_F(RouterTest, AdmissionRejectsOverBudgetInstall) {
  auto router = MakeRouter();
  router->Start();
  VrpProgram huge = BuildSyntheticBlocks(40);  // ~441 cycles > 240 budget
  InstallRequest req;
  req.key = FlowKey::All();
  req.where = Where::kMicroEngine;
  req.program = &huge;
  auto outcome = router->Install(req);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("budget"), std::string::npos);
}

TEST_F(RouterTest, InstallRejectsUnknownNativeIndex) {
  auto router = MakeRouter();
  InstallRequest req;
  req.key = FlowKey::All();
  req.where = Where::kPentium;
  req.native_index = 99;
  EXPECT_FALSE(router->Install(req).ok);
}

// --- Pentium path ---

TEST_F(RouterTest, PentiumFlowRoundTrips) {
  RouterConfig cfg;
  cfg.classifier = ClassifierMode::kFlowTable;  // per-flow installs need §4.5 classification
  auto router = MakeRouter(std::move(cfg));
  const int idx = router->pe_forwarders().Register(
      std::make_unique<FixedCostForwarder>("svc", 1000));
  router->Start();

  PacketSpec spec;
  spec.dst_ip = DstIpForPort(6, 1);
  spec.protocol = kIpProtoTcp;
  spec.src_port = 5555;
  spec.dst_port = 80;

  InstallRequest req;
  req.key = FlowKey::Tuple(spec.src_ip, spec.dst_ip, 5555, 80);
  req.where = Where::kPentium;
  req.native_index = idx;
  req.expected_pps = 10'000;
  auto outcome = router->Install(req);
  ASSERT_TRUE(outcome.ok) << outcome.error;

  for (int i = 0; i < 10; ++i) {
    router->port(0).InjectFromWire(BuildPacket(spec));
  }
  router->RunForMs(5.0);

  EXPECT_EQ(router->stats().to_pentium, 10u);
  EXPECT_EQ(router->stats().pentium_processed, 10u);
  EXPECT_EQ(received_.per_port[6], 10u) << "Pentium-processed packets re-enter the data path";
  ExpectInvariants(*router);
}

TEST_F(RouterTest, ControlPlaneUpdatesRoutesViaOspf) {
  // The protocol instance must outlive the router's use of the forwarder.
  static OspfLite ospf(1);
  ospf = OspfLite(1);
  ospf.AddLocalLink(OspfLink{2, 0, 0, 1, 7});  // neighbor 2 via port 7
  auto router = MakeRouter();
  const int idx =
      router->pe_forwarders().Register(std::make_unique<OspfForwarder>(ospf));
  InstallRequest req;
  req.key = FlowKey::All();
  req.where = Where::kPentium;
  req.native_index = idx;
  req.expected_pps = 1000;
  ASSERT_TRUE(router->Install(req).ok);
  router->Start();

  // No route for 10.200/16 yet.
  PacketSpec data;
  data.dst_ip = Ipv4FromString("10.200.0.1");
  router->port(0).InjectFromWire(BuildPacket(data));
  router->RunForMs(2.0);
  EXPECT_EQ(received_.per_port[7], 0u);

  // Neighbor 2 advertises 10.200/16.
  Lsa lsa;
  lsa.origin = 2;
  lsa.seq = 1;
  lsa.links = {OspfLink{1, 0, 0, 1, 0},
               OspfLink{0, Ipv4FromString("10.200.0.0"), 16, 1, 0}};
  router->port(7).InjectFromWire(BuildLsaPacket(lsa, 0x0a070002, 0x0a070001, 7));
  router->RunForMs(3.0);
  EXPECT_GE(router->stats().pentium_processed, 1u);
  ASSERT_TRUE(router->route_table().Lookup(data.dst_ip).entry);

  // Now data flows out port 7.
  router->port(0).InjectFromWire(BuildPacket(data));
  router->RunForMs(3.0);
  EXPECT_EQ(received_.per_port[7], 1u);
  ExpectInvariants(*router);
}

// --- robustness (§4.7) ---

TEST_F(RouterTest, MonitoringSuiteDoesNotBreakLineRate) {
  // Install a suite of Table 5 forwarders, then offer full line rate: the
  // VRP budget guarantees zero loss.
  auto router = MakeRouter();
  router->Start();
  for (auto builder : {BuildSynMonitor, BuildAckMonitor}) {
    VrpProgram program = builder();
    InstallRequest req;
    req.key = FlowKey::All();
    req.where = Where::kMicroEngine;
    req.program = &program;
    ASSERT_TRUE(router->Install(req).ok);
  }
  std::vector<std::unique_ptr<TrafficGen>> gens;
  for (int p = 0; p < 8; ++p) {
    TrafficSpec spec;
    spec.rate_pps = 141'000;
    spec.protocol = kIpProtoTcp;
    gens.push_back(std::make_unique<TrafficGen>(router->engine(), router->port(p), spec,
                                                static_cast<uint64_t>(100 + p)));
    gens.back()->Start(12 * kPsPerMs);
  }
  router->RunForMs(2.0);
  router->StartMeasurement();
  router->RunForMs(8.0);
  EXPECT_NEAR(router->ForwardingRateMpps(), 1.128, 0.03);
  EXPECT_EQ(router->stats().dropped_queue_full, 0u);
  router->RunForMs(3.0);  // drain
  ExpectInvariants(*router);
}

TEST_F(RouterTest, BufferLapLossIsDetected) {
  // Shrink the buffer pool so the circular allocator laps while packets sit
  // in a congested queue: the output stage must detect and count the loss
  // (§3.2.3's designed-in hazard).
  RouterConfig cfg;
  cfg.hw.num_buffers = 32;
  auto router = MakeRouter(std::move(cfg));
  router->Start();
  TrafficSpec spec;
  spec.rate_pps = 148'000;
  spec.pattern = TrafficSpec::DstPattern::kSinglePort;
  spec.single_dst_port = 1;
  // All eight sources aim at one 100 Mbps port: 8:1 overload.
  std::vector<std::unique_ptr<TrafficGen>> gens;
  for (int p = 0; p < 8; ++p) {
    gens.push_back(std::make_unique<TrafficGen>(router->engine(), router->port(p), spec,
                                                static_cast<uint64_t>(p)));
    gens.back()->Start(10 * kPsPerMs);
  }
  router->RunForMs(10.0);
  EXPECT_GT(router->stats().lost_overwritten, 0u);
  router->RunForMs(8.0);  // let the congested port drain
  ExpectInvariants(*router);
}

TEST_F(RouterTest, LatencyIsMicroseconds) {
  auto router = MakeRouter();
  router->Start();
  PacketSpec spec;
  spec.dst_ip = DstIpForPort(2, 1);
  for (int i = 0; i < 20; ++i) {
    router->port(0).InjectFromWire(BuildPacket(spec));
  }
  router->RunForMs(3.0);
  ASSERT_GT(router->stats().latency_ns.count(), 0u);
  // Store-and-forward of a 64 B packet through the pipeline: a few µs
  // dominated by wire and queueing, well under a millisecond.
  EXPECT_LT(router->stats().latency_ns.max(), 1'000'000u);
  EXPECT_GT(router->stats().latency_ns.min(), 100u);
  ExpectInvariants(*router);
}

}  // namespace
}  // namespace npr

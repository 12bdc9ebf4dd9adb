// QoS and service-differentiation tests: multi-priority queues (§3.4),
// the DSCP tagger and token-bucket limiter forwarders, PCAP capture, and
// heterogeneous port rates.

#include <gtest/gtest.h>

#include <cstdio>

#include "src/core/router.h"
#include "src/forwarders/native.h"
#include "src/forwarders/vrp_programs.h"
#include "src/ixp/hash_unit.h"
#include "src/net/pcap_writer.h"
#include "src/net/traffic_gen.h"
#include "src/vrp/assembler.h"
#include "src/vrp/interpreter.h"

namespace npr {
namespace {

// --- multi-priority queues (§3.4.1: priority-ordered service) ---

TEST(Qos, HighPriorityFlowSurvivesCongestion) {
  // Two flows converge on one 100 Mbps port at 2x its line rate. Flow B is
  // demoted to priority 1 by a per-flow VRP program (setq); the output
  // scheduler drains priority 0 first, so flow A keeps (nearly) all of its
  // packets and flow B absorbs the loss.
  RouterConfig cfg;
  cfg.queues_per_port = 2;
  cfg.output_servicing = OutputServicing::kMultiQueueIndirection;
  cfg.classifier = ClassifierMode::kFlowTable;
  cfg.queue_capacity = 256;
  Router router(std::move(cfg));
  for (int p = 0; p < router.num_ports(); ++p) {
    router.AddRoute("10." + std::to_string(p) + ".0.0/16", static_cast<uint8_t>(p));
  }
  router.WarmRouteCache(64);

  uint64_t delivered_a = 0, delivered_b = 0;
  router.port(2).SetSink([&](Packet&& packet) {
    auto ip = Ipv4Header::Parse(packet.l3());
    if (ip && ip->src == SrcIpForPort(0, 1)) {
      ++delivered_a;
    } else {
      ++delivered_b;
    }
  });

  // Flow B's per-flow forwarder: demote to priority queue 1.
  auto demote = Assemble("demote", "setq 1\nsend\n");
  ASSERT_TRUE(demote.ok);
  InstallRequest req;
  req.key = FlowKey::Tuple(SrcIpForPort(1, 1), DstIpForPort(2, 1), 1024, 80);
  req.where = Where::kMicroEngine;
  req.program = &demote.program;
  ASSERT_TRUE(router.Install(req).ok);
  router.Start();

  // Both flows at 141 Kpps toward port 2 (capacity 148.8 Kpps).
  std::vector<std::unique_ptr<TrafficGen>> gens;
  for (int src = 0; src < 2; ++src) {
    TrafficSpec spec;
    spec.rate_pps = 141'000;
    spec.pattern = TrafficSpec::DstPattern::kSinglePort;
    spec.single_dst_port = 2;
    spec.protocol = kIpProtoTcp;
    gens.push_back(std::make_unique<TrafficGen>(router.engine(), router.port(src), spec,
                                                static_cast<uint64_t>(src + 1)));
    gens.back()->Start(20 * kPsPerMs);
  }
  router.RunForMs(25.0);

  // ~2820 of each offered; the port can carry ~2976 total.
  EXPECT_GT(delivered_a, 2600u) << "priority 0 must ride out the congestion";
  EXPECT_LT(delivered_b, delivered_a / 4) << "priority 1 absorbs the overload";
  EXPECT_GT(router.stats().dropped_queue_full, 1000u);
}

TEST(Qos, PriorityFromVrpClampedToConfiguredQueues) {
  // setq beyond queues_per_port-1 is clamped, not an overflow, whether the
  // program is bound to the flow or general (ALL-keyed).
  auto wild = Assemble("wild", "setq 9\nsend\n");
  ASSERT_TRUE(wild.ok);
  PacketSpec spec;
  spec.dst_ip = DstIpForPort(1, 1);
  spec.protocol = kIpProtoTcp;
  spec.src_port = 7;
  spec.dst_port = 7;
  for (const FlowKey& key : {FlowKey::Tuple(spec.src_ip, spec.dst_ip, 7, 7), FlowKey::All()}) {
    SCOPED_TRACE(key.all ? "general" : "per-flow");
    RouterConfig cfg;
    cfg.queues_per_port = 2;
    cfg.output_servicing = OutputServicing::kMultiQueueIndirection;
    cfg.classifier = ClassifierMode::kFlowTable;
    Router router(std::move(cfg));
    for (int p = 0; p < router.num_ports(); ++p) {
      router.AddRoute("10." + std::to_string(p) + ".0.0/16", static_cast<uint8_t>(p));
    }
    router.WarmRouteCache(8);
    uint64_t delivered = 0;
    router.port(1).SetSink([&](Packet&&) { ++delivered; });

    InstallRequest req;
    req.key = key;
    req.where = Where::kMicroEngine;
    req.program = &wild.program;
    ASSERT_TRUE(router.Install(req).ok);
    router.Start();
    router.port(0).InjectFromWire(BuildPacket(spec));
    router.RunForMs(2.0);
    EXPECT_EQ(delivered, 1u);
    // The packet went through port 1's last queue (priority 9 clamped to 1).
    EXPECT_EQ(router.queues().QueueFor(0, 1, 0).pushes(), 0u);
    EXPECT_EQ(router.queues().QueueFor(0, 1, 1).pushes(), 1u);
  }
}

// --- DSCP tagger ---

class TaggerTest : public ::testing::Test {
 protected:
  TaggerTest() : sram_("sram", 1024), interp_(sram_, hash_) {}
  BackingStore sram_;
  HashUnit hash_;
  VrpInterpreter interp_;
};

TEST_F(TaggerTest, RewritesTosAndKeepsChecksumValid) {
  auto program = BuildDscpTagger();
  sram_.WriteU32(0, 0xb8);  // EF class

  PacketSpec spec;
  spec.protocol = kIpProtoTcp;
  Packet p = BuildPacket(spec);
  ASSERT_TRUE(Ipv4Header::Validate(p.l3()));
  auto out = interp_.Run(program, p.bytes().first(64), 0, nullptr);
  EXPECT_EQ(out.action, VrpAction::kSend);

  auto ip = Ipv4Header::Parse(p.l3());
  ASSERT_TRUE(ip);
  EXPECT_EQ(ip->tos, 0xb8);
  EXPECT_TRUE(Ipv4Header::Validate(p.l3())) << "incremental checksum update broke the header";
  EXPECT_EQ(sram_.ReadU32(4), 1u);  // tagged count
}

TEST_F(TaggerTest, UnchangedClassLeavesChecksumAlone) {
  auto program = BuildDscpTagger();
  sram_.WriteU32(0, 0);  // class 0 == default TOS
  PacketSpec spec;
  Packet p = BuildPacket(spec);
  const uint16_t before = Ipv4Header::Parse(p.l3())->checksum;
  interp_.Run(program, p.bytes().first(64), 0, nullptr);
  EXPECT_EQ(Ipv4Header::Parse(p.l3())->checksum, before);
  EXPECT_EQ(sram_.ReadU32(4), 0u);  // not counted as tagged
}

TEST_F(TaggerTest, SweepClassesChecksumAlwaysValid) {
  auto program = BuildDscpTagger();
  for (uint32_t cls : {0x20u, 0x48u, 0x68u, 0x88u, 0xb8u, 0xffu}) {
    sram_.WriteU32(0, cls);
    PacketSpec spec;
    spec.dst_ip = 0x0a000000 + cls;  // vary the header contents too
    Packet p = BuildPacket(spec);
    interp_.Run(program, p.bytes().first(64), 0, nullptr);
    EXPECT_TRUE(Ipv4Header::Validate(p.l3())) << "class " << cls;
    EXPECT_EQ(Ipv4Header::Parse(p.l3())->tos, cls);
  }
}

// --- rate limiter ---

TEST_F(TaggerTest, RateLimiterSpendsTokensThenDrops) {
  auto program = BuildRateLimiter();
  sram_.WriteU32(0, 3);  // 3 tokens

  PacketSpec spec;
  int sent = 0, dropped = 0;
  for (int i = 0; i < 5; ++i) {
    Packet p = BuildPacket(spec);
    auto out = interp_.Run(program, p.bytes().first(64), 0, nullptr);
    (out.action == VrpAction::kSend ? sent : dropped) += 1;
  }
  EXPECT_EQ(sent, 3);
  EXPECT_EQ(dropped, 2);
  EXPECT_EQ(sram_.ReadU32(0), 0u);
  EXPECT_EQ(sram_.ReadU32(4), 2u);

  // The control half refills the bucket.
  sram_.WriteU32(0, 2);
  Packet p = BuildPacket(spec);
  EXPECT_EQ(interp_.Run(program, p.bytes().first(64), 0, nullptr).action, VrpAction::kSend);
}

TEST(RateLimiterEndToEnd, ControlRefillGovernsThroughput) {
  RouterConfig cfg;
  Router router(std::move(cfg));
  for (int p = 0; p < router.num_ports(); ++p) {
    router.AddRoute("10." + std::to_string(p) + ".0.0/16", static_cast<uint8_t>(p));
  }
  router.WarmRouteCache(16);
  uint64_t delivered = 0;
  router.port(1).SetSink([&](Packet&&) { ++delivered; });

  VrpProgram limiter = BuildRateLimiter();
  InstallRequest req;
  req.key = FlowKey::All();
  req.where = Where::kMicroEngine;
  req.program = &limiter;
  auto outcome = router.Install(req);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  router.Start();

  // Refill 100 tokens every 2 ms => ~50 Kpps admitted of a 141 Kpps flood.
  std::function<void()> refill = [&] {
    auto state = router.GetData(outcome.fid);
    uint32_t tokens = 100;
    std::memcpy(state.data(), &tokens, 4);
    router.SetData(outcome.fid, state);
    router.engine().ScheduleIn(2 * kPsPerMs, refill);
  };
  refill();

  TrafficSpec spec;
  spec.rate_pps = 141'000;
  spec.pattern = TrafficSpec::DstPattern::kSinglePort;
  spec.single_dst_port = 1;
  TrafficGen gen(router.engine(), router.port(0), spec, 9);
  gen.Start(20 * kPsPerMs);
  router.RunForMs(22.0);

  // ~10 refills x 100 tokens = ~1000 admitted of ~2820 offered.
  EXPECT_NEAR(static_cast<double>(delivered), 1100.0, 200.0);
  EXPECT_GT(router.stats().dropped_by_vrp, 1500u);
}

// --- PCAP ---

TEST(Pcap, WritesParseableFile) {
  const std::string path = ::testing::TempDir() + "/npr_test.pcap";
  {
    PcapWriter writer(path);
    ASSERT_TRUE(writer.ok());
    PacketSpec spec;
    spec.frame_bytes = 100;
    writer.Capture(BuildPacket(spec), 1 * kPsPerSec + 500 * kPsPerMs);
    writer.Capture(BuildPacket(spec), 2 * kPsPerSec);
    EXPECT_EQ(writer.captured(), 2u);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  uint32_t magic = 0;
  ASSERT_EQ(std::fread(&magic, 4, 1, f), 1u);
  EXPECT_EQ(magic, 0xa1b2c3d4u);
  std::fseek(f, 24, SEEK_SET);  // past the global header
  uint32_t rec[4];
  ASSERT_EQ(std::fread(rec, 4, 4, f), 4u);
  EXPECT_EQ(rec[0], 1u);       // ts_sec
  EXPECT_EQ(rec[1], 500'000u); // ts_usec
  EXPECT_EQ(rec[2], 100u);     // incl_len
  EXPECT_EQ(rec[3], 100u);     // orig_len
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(Pcap, SinkIntegration) {
  const std::string path = ::testing::TempDir() + "/npr_sink.pcap";
  Router router((RouterConfig()));
  router.AddRoute("10.1.0.0/16", 1);
  router.WarmRouteCache(8);
  {
    PcapWriter writer(path);
    router.port(1).SetSink(
        [&](Packet&& packet) { writer.Capture(packet, router.engine().now()); });
    router.Start();
    PacketSpec spec;
    spec.dst_ip = DstIpForPort(1, 1);
    for (int i = 0; i < 5; ++i) {
      router.port(0).InjectFromWire(BuildPacket(spec));
    }
    router.RunForMs(2.0);
    EXPECT_EQ(writer.captured(), 5u);
  }
  std::remove(path.c_str());
}

// --- heterogeneous ports (the board's 8x100 Mbps + 2x1 Gbps, §2.2) ---

TEST(MixedPorts, GigabitIngressFansOutWithoutLoss) {
  RouterConfig cfg;
  cfg.port_rates_bps = std::vector<double>(8, 100e6);
  cfg.port_rates_bps.push_back(1e9);
  cfg.port_rates_bps.push_back(1e9);
  Router router(std::move(cfg));
  ASSERT_EQ(router.num_ports(), 10);
  for (int p = 0; p < 8; ++p) {
    router.AddRoute("10." + std::to_string(p) + ".0.0/16", static_cast<uint8_t>(p));
  }
  router.WarmRouteCache(32);
  uint64_t delivered = 0;
  for (int p = 0; p < 8; ++p) {
    router.port(p).SetSink([&](Packet&&) { ++delivered; });
  }
  router.Start();

  // 500 Kpps into gigabit port 8, spread over the eight 100 Mbps ports
  // (62.5 Kpps each, well within their 148.8 Kpps line rate).
  TrafficSpec spec;
  spec.rate_pps = 500'000;
  spec.num_dst_ports = 8;
  spec.dst_spread = 32;
  TrafficGen gen(router.engine(), router.port(8), spec, 5);
  gen.Start(10 * kPsPerMs);
  router.RunForMs(13.0);

  EXPECT_NEAR(static_cast<double>(delivered), 5000.0, 100.0);
  EXPECT_EQ(router.stats().dropped_queue_full, 0u);
  EXPECT_EQ(router.port(8).rx_dropped(), 0u);
}

}  // namespace
}  // namespace npr

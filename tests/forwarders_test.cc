// Tests for the example data forwarders (Table 5) — functional behavior on
// real packets, and static costs within the VRP budget — plus the native
// StrongARM/Pentium forwarders.

#include <gtest/gtest.h>

#include "src/forwarders/native.h"
#include "src/forwarders/vrp_programs.h"
#include "src/ixp/hash_unit.h"
#include "src/mem/backing_store.h"
#include "src/net/packet.h"
#include "src/net/tcp.h"
#include "src/net/traffic_gen.h"
#include "src/route/route_table.h"
#include "src/vrp/interpreter.h"
#include "src/vrp/verifier.h"

namespace npr {
namespace {

class ForwarderTest : public ::testing::Test {
 protected:
  ForwarderTest() : sram_("sram", 8192), interp_(sram_, hash_) {}

  // Runs `program` over the first MP of `packet` with state at 512.
  VrpOutcome Run(const VrpProgram& program, Packet& packet) {
    auto bytes = packet.bytes();
    return interp_.Run(program, bytes.first(std::min<size_t>(64, bytes.size())), 512, &budget_);
  }

  BackingStore sram_;
  HashUnit hash_;
  VrpInterpreter interp_;
  const VrpBudget budget_ = VrpBudget::Prototype();
};

// Every Table 5 forwarder verifies and fits the prototype VRP budget.
class Table5Budget : public ::testing::TestWithParam<const char*> {};

TEST_P(Table5Budget, VerifiesAndFitsBudget) {
  VrpProgram program;
  const std::string which = GetParam();
  if (which == "splicer") {
    program = BuildTcpSplicer();
  } else if (which == "wavelet") {
    program = BuildWaveletDropper();
  } else if (which == "ack") {
    program = BuildAckMonitor();
  } else if (which == "syn") {
    program = BuildSynMonitor();
  } else if (which == "filter") {
    program = BuildPortFilter();
  } else {
    program = BuildIpMinimal();
  }
  auto v = VerifyProgram(program);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_TRUE(VrpBudget::Prototype().Admits(v.worst_case))
      << which << " needs " << v.worst_case.cycles << " cycles, "
      << v.worst_case.sram_transfers() << " transfers";
  // ISTORE footprint stays within the 650 free slots.
  EXPECT_LE(program.instructions(), 650u);
}

INSTANTIATE_TEST_SUITE_P(All, Table5Budget,
                         ::testing::Values("splicer", "wavelet", "ack", "syn", "filter", "ip"),
                         [](const auto& info) { return std::string(info.param); });

// --- SYN monitor ---

TEST_F(ForwarderTest, SynMonitorCountsOnlySyns) {
  auto program = BuildSynMonitor();
  PacketSpec syn;
  syn.protocol = kIpProtoTcp;
  syn.tcp_flags = kTcpFlagSyn;
  PacketSpec ack = syn;
  ack.tcp_flags = kTcpFlagAck;

  for (int i = 0; i < 3; ++i) {
    Packet p = BuildPacket(syn);
    EXPECT_EQ(Run(program, p).action, VrpAction::kSend);
  }
  for (int i = 0; i < 5; ++i) {
    Packet p = BuildPacket(ack);
    EXPECT_EQ(Run(program, p).action, VrpAction::kSend);
  }
  EXPECT_EQ(sram_.ReadU32(512), 3u);
}

TEST_F(ForwarderTest, SynMonitorCountsSynAck) {
  auto program = BuildSynMonitor();
  PacketSpec spec;
  spec.protocol = kIpProtoTcp;
  spec.tcp_flags = kTcpFlagSyn | kTcpFlagAck;
  Packet p = BuildPacket(spec);
  Run(program, p);
  EXPECT_EQ(sram_.ReadU32(512), 1u);
}

// --- ACK monitor ---

TEST_F(ForwarderTest, AckMonitorDetectsDuplicates) {
  auto program = BuildAckMonitor();
  PacketSpec spec;
  spec.protocol = kIpProtoTcp;
  spec.tcp_flags = kTcpFlagAck;
  spec.tcp_ack = 0x1000;

  for (int i = 0; i < 3; ++i) {  // same ack three times: 2 repeats
    Packet p = BuildPacket(spec);
    Run(program, p);
  }
  spec.tcp_ack = 0x2000;  // fresh ack
  Packet p = BuildPacket(spec);
  Run(program, p);

  EXPECT_EQ(sram_.ReadU32(512 + 0), 0x2000u);  // last ack
  EXPECT_EQ(sram_.ReadU32(512 + 4), 2u);       // duplicates
  EXPECT_EQ(sram_.ReadU32(512 + 8), 4u);       // total acks
}

TEST_F(ForwarderTest, AckMonitorIgnoresNonTcp) {
  auto program = BuildAckMonitor();
  PacketSpec spec;
  spec.protocol = kIpProtoUdp;
  Packet p = BuildPacket(spec);
  Run(program, p);
  EXPECT_EQ(sram_.ReadU32(512 + 8), 0u);
}

// --- port filter ---

struct FilterCase {
  uint16_t port;
  bool dropped;
};

// Without a printer gtest dumps the raw bytes, padding byte included, and
// ctest's discovered test names carry that dump. The name generator below
// already spells out the port.
void PrintTo(const FilterCase& c, std::ostream* os) { *os << (c.dropped ? "drop" : "send"); }

class PortFilterRanges : public ForwarderTest, public ::testing::WithParamInterface<FilterCase> {};

TEST_P(PortFilterRanges, BlocksConfiguredRanges) {
  auto program = BuildPortFilter();
  // Ranges: [80,99] and [1000,1000]; rest empty.
  sram_.WriteU32(512 + 0, 80u << 16 | 99);
  sram_.WriteU32(512 + 4, 1000u << 16 | 1000);

  PacketSpec spec;
  spec.protocol = kIpProtoTcp;
  spec.dst_port = GetParam().port;
  Packet p = BuildPacket(spec);
  auto out = Run(program, p);
  EXPECT_EQ(out.action, GetParam().dropped ? VrpAction::kDrop : VrpAction::kSend)
      << "port " << GetParam().port;
}

INSTANTIATE_TEST_SUITE_P(Boundaries, PortFilterRanges,
                         ::testing::Values(FilterCase{79, false}, FilterCase{80, true},
                                           FilterCase{90, true}, FilterCase{99, true},
                                           FilterCase{100, false}, FilterCase{999, false},
                                           FilterCase{1000, true}, FilterCase{1001, false},
                                           FilterCase{8080, false}),
                         [](const auto& info) {
                           return "port" + std::to_string(info.param.port);
                         });

// --- wavelet dropper ---

TEST_F(ForwarderTest, WaveletDropsAboveCutoff) {
  auto program = BuildWaveletDropper();
  sram_.WriteU32(512, 4);  // cutoff layer: 4

  auto make = [](uint8_t level, uint8_t subband) {
    PacketSpec spec;
    spec.protocol = kIpProtoUdp;
    spec.frame_bytes = 128;
    Packet p = BuildPacket(spec);
    // Layer tag in payload bytes 54-55 (p13 lo16): level, subband.
    p.bytes()[54] = level;
    p.bytes()[55] = subband;
    return p;
  };

  Packet low = make(0, 2);  // layer 2 < 4: keep
  EXPECT_EQ(Run(program, low).action, VrpAction::kSend);
  Packet high = make(2, 1);  // layer 9 > 4: drop
  EXPECT_EQ(Run(program, high).action, VrpAction::kDrop);
  EXPECT_EQ(sram_.ReadU32(512 + 4), 1u);  // one forwarded
}

TEST_F(ForwarderTest, WaveletCutoffZeroDropsAll) {
  auto program = BuildWaveletDropper();
  sram_.WriteU32(512, 0);
  PacketSpec spec;
  spec.frame_bytes = 128;
  int sent = 0;
  for (int i = 0; i < 8; ++i) {
    Packet p = BuildPacket(spec);
    p.bytes()[54] = 1;
    p.bytes()[55] = static_cast<uint8_t>(i % 4);
    sent += Run(program, p).action == VrpAction::kSend;
  }
  EXPECT_EQ(sent, 0);
}

// --- TCP splicer ---

TEST_F(ForwarderTest, SplicerPassesThroughBeforeSplice) {
  auto program = BuildTcpSplicer();
  PacketSpec spec;
  spec.protocol = kIpProtoTcp;
  spec.tcp_seq = 1000;
  Packet p = BuildPacket(spec);
  const uint32_t before = [&] {
    auto tcp = TcpHeader::Parse(p.l4());
    return tcp->seq;
  }();
  EXPECT_EQ(Run(program, p).action, VrpAction::kSend);
  auto tcp = TcpHeader::Parse(p.l4());
  EXPECT_EQ(tcp->seq, before);  // untouched
  EXPECT_EQ(sram_.ReadU32(512 + 20), 0u);  // not counted
}

TEST_F(ForwarderTest, SplicerRewritesSeqAndAck) {
  auto program = BuildTcpSplicer();
  sram_.WriteU32(512 + 0, 5000);   // seq delta
  sram_.WriteU32(512 + 4, static_cast<uint32_t>(-3000));  // ack delta
  sram_.WriteU32(512 + 16, 1);     // spliced

  PacketSpec spec;
  spec.protocol = kIpProtoTcp;
  spec.tcp_seq = 1000;
  spec.tcp_ack = 9000;
  spec.tcp_flags = kTcpFlagAck;
  Packet p = BuildPacket(spec);
  EXPECT_EQ(Run(program, p).action, VrpAction::kSend);

  auto tcp = TcpHeader::Parse(p.l4());
  ASSERT_TRUE(tcp);
  EXPECT_EQ(tcp->seq, 6000u);  // 1000 + 5000
  EXPECT_EQ(tcp->ack, 6000u);  // 9000 - 3000
  EXPECT_EQ(sram_.ReadU32(512 + 20), 1u);  // packet counted
}

TEST_F(ForwarderTest, SplicerKeepsTcpChecksumValid) {
  // RFC 1624 end to end: after the seq/ack rewrite plus the precomputed
  // adjustment, the transport checksum must still verify.
  auto program = BuildTcpSplicer();
  const uint32_t seq_delta = 0x00012345;
  const uint32_t ack_delta = 0u - 0x00012345u;
  auto fold = [](uint32_t v) {
    uint32_t s = (v >> 16) + (v & 0xffff);
    while (s >> 16) {
      s = (s & 0xffff) + (s >> 16);
    }
    return s;
  };
  uint32_t adjust = fold(seq_delta) + fold(ack_delta);
  while (adjust >> 16) {
    adjust = (adjust & 0xffff) + (adjust >> 16);
  }
  sram_.WriteU32(512 + 0, seq_delta);
  sram_.WriteU32(512 + 4, ack_delta);
  sram_.WriteU32(512 + 12, adjust);
  sram_.WriteU32(512 + 16, 1);

  for (uint32_t seq : {0u, 1000u, 0xfffff000u, 0x7fffffffu}) {
    PacketSpec spec;
    spec.protocol = kIpProtoTcp;
    spec.tcp_seq = seq;
    spec.tcp_ack = seq + 777;
    spec.tcp_flags = kTcpFlagAck;
    Packet p = BuildPacket(spec);
    EXPECT_EQ(Run(program, p).action, VrpAction::kSend);

    // Verify the rewritten values and the checksum against a from-scratch
    // recompute.
    auto ip = Ipv4Header::Parse(p.l3());
    auto l4 = p.l3().subspan(ip->header_bytes());
    auto tcp = TcpHeader::Parse(l4);
    ASSERT_TRUE(tcp);
    EXPECT_EQ(tcp->seq, seq + seq_delta);
    EXPECT_EQ(tcp->ack, spec.tcp_ack + ack_delta);
    TcpHeader expect = *tcp;
    std::vector<uint8_t> copy(l4.begin(), l4.end());
    expect.WriteWithChecksum(copy, ip->src, ip->dst);
    const uint16_t recomputed = TcpHeader::Parse(copy)->checksum;
    // One's-complement arithmetic has two zero representations; normalize.
    auto norm = [](uint16_t v) { return v == 0xffff ? 0 : v; };
    EXPECT_EQ(norm(tcp->checksum), norm(recomputed)) << "seq=" << seq;
  }
}

// --- minimal IP ---

TEST_F(ForwarderTest, IpMinimalDecrementsTtlAndKeepsChecksumValid) {
  auto program = BuildIpMinimal();
  // Cache route state: new Ethernet header words.
  Packet tmpl = BuildPacket(PacketSpec{});
  EthernetHeader eth;
  eth.dst = PortMac(5);
  eth.src = PortMac(2);
  uint8_t hdr[14];
  eth.Write(hdr);
  for (int w = 0; w < 3; ++w) {
    sram_.WriteU32(512 + static_cast<uint32_t>(w) * 4,
                   static_cast<uint32_t>(hdr[w * 4]) << 24 |
                       static_cast<uint32_t>(hdr[w * 4 + 1]) << 16 |
                       static_cast<uint32_t>(hdr[w * 4 + 2]) << 8 | hdr[w * 4 + 3]);
  }

  PacketSpec spec;
  spec.ttl = 64;
  Packet p = BuildPacket(spec);
  EXPECT_EQ(Run(program, p).action, VrpAction::kSend);

  auto ip = Ipv4Header::Parse(p.l3());
  ASSERT_TRUE(ip);
  EXPECT_EQ(ip->ttl, 63);
  EXPECT_TRUE(Ipv4Header::Validate(p.l3())) << "incremental checksum invalid";
  auto new_eth = EthernetHeader::Parse(p.bytes());
  EXPECT_EQ(new_eth->dst, PortMac(5));
  EXPECT_EQ(sram_.ReadU32(512 + 16), 1u);  // forwarded count
}

TEST_F(ForwarderTest, IpMinimalExpiresTtlOne) {
  auto program = BuildIpMinimal();
  PacketSpec spec;
  spec.ttl = 1;
  Packet p = BuildPacket(spec);
  EXPECT_EQ(Run(program, p).action, VrpAction::kExcept);
  EXPECT_EQ(sram_.ReadU32(512 + 20), 1u);  // expired count
}

// --- synthetic blocks ---

TEST_F(ForwarderTest, SyntheticBlocksCostTenPlusOne) {
  for (int blocks : {1, 4, 16}) {
    auto program = BuildSyntheticBlocks(blocks);
    auto v = VerifyProgram(program);
    ASSERT_TRUE(v.ok);
    EXPECT_EQ(v.worst_case.cycles, static_cast<uint32_t>(blocks * 11 + 1));
    EXPECT_EQ(v.worst_case.sram_reads, static_cast<uint32_t>(blocks));
  }
}

// --- native forwarders ---

TEST(FullIp, ForwardsAndRewrites) {
  RouteTable routes;
  routes.AddRoute("10.2.0.0/16", 2);
  BackingStore sram("sram", 1024);
  FullIpForwarder fw;
  PacketSpec spec;
  spec.dst_ip = DstIpForPort(2, 1);
  Packet p = BuildPacket(spec);
  NativeContext ctx;
  ctx.packet = &p;
  ctx.routes = &routes;
  ctx.sram = &sram;
  ctx.state_addr = 0;
  ctx.state_bytes = 16;
  EXPECT_EQ(fw.Process(ctx), NativeAction::kForward);
  EXPECT_EQ(ctx.out_port, 2);
  auto ip = Ipv4Header::Parse(p.l3());
  EXPECT_EQ(ip->ttl, 63);
  EXPECT_TRUE(Ipv4Header::Validate(p.l3()));
  EXPECT_EQ(sram.ReadU32(0), 1u);
}

TEST(FullIp, HandlesRecordRouteOption) {
  RouteTable routes;
  routes.AddRoute("10.2.0.0/16", 2);
  FullIpForwarder fw;
  PacketSpec spec;
  spec.dst_ip = DstIpForPort(2, 1);
  spec.ip_options = {0x07, 0x07, 0x04, 0, 0, 0, 0, 0x00};  // record route, one slot
  Packet p = BuildPacket(spec);
  NativeContext ctx;
  ctx.packet = &p;
  ctx.routes = &routes;
  EXPECT_EQ(fw.Process(ctx), NativeAction::kForward);
  EXPECT_EQ(fw.options_handled(), 1u);
  EXPECT_GT(ctx.extra_cycles, 0u);
  auto ip = Ipv4Header::Parse(p.l3());
  ASSERT_TRUE(ip->has_options());
  EXPECT_EQ(ip->options[2], 0x08);  // pointer advanced past the stamped slot
}

TEST(FullIp, DropsUnroutable) {
  RouteTable routes;  // empty
  FullIpForwarder fw;
  Packet p = BuildPacket(PacketSpec{});
  NativeContext ctx;
  ctx.packet = &p;
  ctx.routes = &routes;
  EXPECT_EQ(fw.Process(ctx), NativeAction::kDrop);
}

TEST(TcpProxy, TracksHandshakeAndMarksSpliceEligible) {
  BackingStore sram("sram", 1024);
  TcpProxyForwarder fw;
  RouteTable routes;
  NativeContext ctx;
  ctx.routes = &routes;
  ctx.sram = &sram;
  ctx.state_addr = 0;
  ctx.state_bytes = 32;

  PacketSpec syn;
  syn.protocol = kIpProtoTcp;
  syn.tcp_flags = kTcpFlagSyn;
  syn.tcp_seq = 100;
  Packet p1 = BuildPacket(syn);
  ctx.packet = &p1;
  fw.Process(ctx);
  EXPECT_EQ(sram.ReadU32(0), 1u);  // phase: saw SYN

  PacketSpec ack = syn;
  ack.tcp_flags = kTcpFlagAck;
  ack.tcp_ack = 101;
  Packet p2 = BuildPacket(ack);
  ctx.packet = &p2;
  fw.Process(ctx);
  EXPECT_EQ(sram.ReadU32(0), 2u);  // established
  EXPECT_EQ(fw.handshakes_seen(), 1u);

  // Push enough payload through to become splice-eligible.
  PacketSpec data = ack;
  data.frame_bytes = 256;
  for (int i = 0; i < 2; ++i) {
    Packet p = BuildPacket(data);
    ctx.packet = &p;
    fw.Process(ctx);
  }
  EXPECT_EQ(sram.ReadU32(16), 1u);
}

TEST(FixedCost, DeclaresItsCycles) {
  FixedCostForwarder fw("svc", 1510);
  EXPECT_EQ(fw.cycles_per_packet(), 1510u);
  Packet p = BuildPacket(PacketSpec{});
  NativeContext ctx;
  ctx.packet = &p;
  EXPECT_EQ(fw.Process(ctx), NativeAction::kForward);
  EXPECT_EQ(fw.processed(), 1u);
}

}  // namespace
}  // namespace npr

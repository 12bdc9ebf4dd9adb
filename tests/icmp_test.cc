// ICMP codec and the StrongARM's error-generation path.

#include <gtest/gtest.h>

#include "src/core/router.h"
#include "src/net/checksum.h"
#include "src/net/icmp.h"
#include "src/net/traffic_gen.h"

namespace npr {
namespace {

TEST(IcmpCodec, HeaderRoundTrip) {
  std::vector<uint8_t> message(16, 0xaa);
  IcmpHeader h;
  h.type = kIcmpTimeExceeded;
  h.code = kIcmpCodeTtlExceeded;
  h.WriteWithChecksum(message);
  auto parsed = IcmpHeader::Parse(message);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->type, kIcmpTimeExceeded);
  EXPECT_EQ(parsed->code, kIcmpCodeTtlExceeded);
  // A correct ICMP message checksums (one's complement) to all-ones.
  EXPECT_EQ(ChecksumPartial(message), 0xffff);
}

TEST(IcmpCodec, TooShortFails) {
  uint8_t buf[4] = {};
  EXPECT_FALSE(IcmpHeader::Parse(buf));
}

TEST(IcmpBuilder, QuotesOffendingHeader) {
  PacketSpec spec;
  spec.src_ip = Ipv4FromString("172.16.5.9");
  spec.dst_ip = Ipv4FromString("10.9.9.9");
  spec.protocol = kIpProtoUdp;
  spec.src_port = 1234;
  Packet original = BuildPacket(spec);

  auto reply = BuildIcmpError(kIcmpTimeExceeded, 0, original, Ipv4FromString("10.255.0.1"));
  ASSERT_TRUE(reply);
  auto ip = Ipv4Header::Parse(reply->l3());
  ASSERT_TRUE(ip);
  EXPECT_EQ(ip->protocol, kIpProtoIcmp);
  EXPECT_EQ(ip->src, Ipv4FromString("10.255.0.1"));
  EXPECT_EQ(ip->dst, spec.src_ip) << "error goes back to the offender's source";
  EXPECT_TRUE(Ipv4Header::Validate(reply->l3()));

  // The quote: original IP header + 8 payload bytes after the 8-byte ICMP
  // header.
  auto icmp_payload = reply->l3().subspan(ip->header_bytes());
  EXPECT_EQ(ChecksumPartial(icmp_payload), 0xffff);
  auto quoted = Ipv4Header::Parse(icmp_payload.subspan(8));
  ASSERT_TRUE(quoted);
  EXPECT_EQ(quoted->src, spec.src_ip);
  EXPECT_EQ(quoted->dst, spec.dst_ip);
  EXPECT_EQ(quoted->protocol, kIpProtoUdp);
}

TEST(IcmpBuilder, NeverAboutIcmpErrors) {
  // Build a time-exceeded, then ask for an error about it: refused.
  Packet original = BuildPacket(PacketSpec{});
  auto first = BuildIcmpError(kIcmpTimeExceeded, 0, original, 0x0aff0001);
  ASSERT_TRUE(first);
  EXPECT_FALSE(BuildIcmpError(kIcmpTimeExceeded, 0, *first, 0x0aff0001));
}

class IcmpPathTest : public ::testing::Test {
 protected:
  std::unique_ptr<Router> MakeRouter() {
    auto router = std::make_unique<Router>(RouterConfig{});
    for (int p = 0; p < router->num_ports(); ++p) {
      router->AddRoute("10." + std::to_string(p) + ".0.0/16", static_cast<uint8_t>(p));
    }
    // Sources live behind port 5.
    router->AddRoute("172.16.0.0/12", 5);
    router->WarmRouteCache(16);
    router->port(5).SetSink([this](Packet&& p) {
      ++back_to_source_;
      last_ = std::move(p);
    });
    return router;
  }

  uint64_t back_to_source_ = 0;
  std::optional<Packet> last_;
};

TEST_F(IcmpPathTest, TtlExpiryGeneratesTimeExceeded) {
  auto router = MakeRouter();
  router->Start();
  PacketSpec spec;
  spec.src_ip = SrcIpForPort(0, 1);  // 172.16.0.1: routable back via port 5
  spec.dst_ip = DstIpForPort(2, 1);
  spec.ttl = 1;
  Packet original = BuildPacket(spec);
  router->port(0).InjectFromWire(std::move(original));
  router->RunForMs(3.0);

  EXPECT_EQ(router->stats().icmp_generated, 1u);
  ASSERT_EQ(back_to_source_, 1u);
  auto ip = Ipv4Header::Parse(last_->l3());
  ASSERT_TRUE(ip);
  EXPECT_EQ(ip->protocol, kIpProtoIcmp);
  auto icmp = IcmpHeader::Parse(last_->l4());
  ASSERT_TRUE(icmp);
  EXPECT_EQ(icmp->type, kIcmpTimeExceeded);
  EXPECT_TRUE(Ipv4Header::Validate(last_->l3()));
}

TEST_F(IcmpPathTest, UnroutableGeneratesUnreachable) {
  auto router = MakeRouter();
  router->Start();
  PacketSpec spec;
  spec.src_ip = SrcIpForPort(0, 1);
  spec.dst_ip = Ipv4FromString("192.0.2.1");  // no route
  router->port(0).InjectFromWire(BuildPacket(spec));
  router->RunForMs(3.0);

  EXPECT_EQ(router->stats().icmp_generated, 1u);
  ASSERT_EQ(back_to_source_, 1u);
  auto icmp = IcmpHeader::Parse(last_->l4());
  ASSERT_TRUE(icmp);
  EXPECT_EQ(icmp->type, kIcmpDestUnreachable);
  EXPECT_EQ(icmp->code, kIcmpCodeHostUnreachable);
}

TEST_F(IcmpPathTest, UnroutableSourceDropsSilently) {
  auto router = MakeRouter();
  router->Start();
  PacketSpec spec;
  spec.src_ip = Ipv4FromString("198.51.100.1");  // source itself unroutable
  spec.dst_ip = DstIpForPort(2, 1);
  spec.ttl = 1;
  router->port(0).InjectFromWire(BuildPacket(spec));
  router->RunForMs(3.0);
  EXPECT_EQ(router->stats().icmp_generated, 0u);
}

TEST_F(IcmpPathTest, FloodOfExpiringPacketsStaysBounded) {
  // A TTL=1 flood exercises allocation + generation under load; regular
  // traffic keeps flowing.
  auto router = MakeRouter();
  uint64_t regular = 0;
  router->port(2).SetSink([&](Packet&&) { ++regular; });
  router->Start();
  std::vector<std::unique_ptr<TrafficGen>> gens;
  {
    TrafficSpec expiring;
    expiring.rate_pps = 50'000;
    expiring.ttl = 1;
    expiring.pattern = TrafficSpec::DstPattern::kSinglePort;
    expiring.single_dst_port = 3;
    gens.push_back(std::make_unique<TrafficGen>(router->engine(), router->port(0), expiring, 1));
    gens.back()->Start(10 * kPsPerMs);
  }
  {
    TrafficSpec normal;
    normal.rate_pps = 100'000;
    normal.pattern = TrafficSpec::DstPattern::kSinglePort;
    normal.single_dst_port = 2;
    gens.push_back(std::make_unique<TrafficGen>(router->engine(), router->port(1), normal, 2));
    gens.back()->Start(10 * kPsPerMs);
  }
  router->RunForMs(12.0);
  EXPECT_GT(router->stats().icmp_generated, 300u);
  EXPECT_NEAR(static_cast<double>(regular), 1000.0, 60.0);
}

// --- echo / ping ---

Packet BuildEchoRequest(uint32_t src, uint32_t dst, uint16_t ident) {
  PacketSpec spec;
  spec.protocol = kIpProtoIcmp;
  spec.src_ip = src;
  spec.dst_ip = dst;
  spec.frame_bytes = 74;  // 40 B of echo payload
  Packet p = BuildPacket(spec);
  auto l4 = p.l4();
  IcmpHeader icmp;
  icmp.type = kIcmpEchoRequest;
  icmp.rest = static_cast<uint32_t>(ident) << 16 | 1;  // id | seq
  icmp.WriteWithChecksum(l4);
  // The payload change invalidates nothing (ICMP checksum covers it), but
  // the IP header must be rewritten since BuildPacket checksummed before.
  auto ip = Ipv4Header::Parse(p.l3());
  ip->Write(p.l3());
  return p;
}

TEST(IcmpEcho, ReplySwapsAddressesAndType) {
  Packet request = BuildEchoRequest(0x0a010101, 0x0aff0001, 77);
  auto reply = BuildEchoReply(request);
  ASSERT_TRUE(reply);
  auto ip = Ipv4Header::Parse(reply->l3());
  ASSERT_TRUE(ip);
  EXPECT_EQ(ip->src, 0x0aff0001u);
  EXPECT_EQ(ip->dst, 0x0a010101u);
  EXPECT_TRUE(Ipv4Header::Validate(reply->l3()));
  auto icmp = IcmpHeader::Parse(reply->l4());
  ASSERT_TRUE(icmp);
  EXPECT_EQ(icmp->type, kIcmpEchoReply);
  EXPECT_EQ(icmp->rest >> 16, 77u);  // identifier preserved
  EXPECT_EQ(ChecksumPartial(reply->l4()), 0xffff);
  // Payload preserved byte for byte.
  EXPECT_TRUE(std::equal(reply->l4().begin() + 8, reply->l4().end(),
                         request.l4().begin() + 8));
}

TEST(IcmpEcho, NonEchoIsNotAnswered) {
  Packet tcp = BuildPacket(PacketSpec{});
  EXPECT_FALSE(BuildEchoReply(tcp));
}

TEST_F(IcmpPathTest, RouterAnswersPing) {
  auto router = MakeRouter();
  router->Start();
  // Ping 10.255.0.1 (the router) from a source behind port 5.
  router->port(0).InjectFromWire(
      BuildEchoRequest(SrcIpForPort(0, 1), router->config().router_ip, 42));
  router->RunForMs(3.0);
  ASSERT_EQ(back_to_source_, 1u);
  auto ip = Ipv4Header::Parse(last_->l3());
  ASSERT_TRUE(ip);
  EXPECT_EQ(ip->protocol, kIpProtoIcmp);
  EXPECT_EQ(ip->src, router->config().router_ip);
  auto icmp = IcmpHeader::Parse(last_->l4());
  ASSERT_TRUE(icmp);
  EXPECT_EQ(icmp->type, kIcmpEchoReply);
  EXPECT_EQ(icmp->rest >> 16, 42u);
}

TEST_F(IcmpPathTest, NonEchoToRouterIsAbsorbed) {
  auto router = MakeRouter();
  router->Start();
  PacketSpec spec;
  spec.src_ip = SrcIpForPort(0, 1);
  spec.dst_ip = router->config().router_ip;
  spec.protocol = kIpProtoUdp;
  router->port(0).InjectFromWire(BuildPacket(spec));
  router->RunForMs(3.0);
  EXPECT_EQ(back_to_source_, 0u);
  EXPECT_EQ(router->stats().forwarded, 0u);
  EXPECT_EQ(router->stats().sa_local_processed, 1u);
}

}  // namespace
}  // namespace npr

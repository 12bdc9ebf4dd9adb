// Unit tests for the network substrate: checksums, header codecs, packet
// building, MP segmentation/reassembly, MAC port pacing, traffic generation.

#include <gtest/gtest.h>

#include "src/net/checksum.h"
#include "src/net/ethernet.h"
#include "src/net/ipv4.h"
#include "src/net/mac_port.h"
#include "src/net/packet.h"
#include "src/net/tcp.h"
#include "src/net/traffic_gen.h"
#include "src/net/udp.h"
#include "src/net/wire.h"
#include "src/sim/random.h"

namespace npr {
namespace {

// --- checksum ---

TEST(Checksum, Rfc1071Example) {
  // Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> sum 0xddf2 -> ~ = 0x220d.
  const uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(InetChecksum(data), 0x220d);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const uint8_t data[] = {0x01, 0x02, 0x03};
  // words: 0x0102, 0x0300 -> sum 0x0402 -> ~ = 0xfbfd.
  EXPECT_EQ(InetChecksum(data), 0xfbfd);
}

TEST(Checksum, ValidHeaderSumsToAllOnes) {
  Ipv4Header h;
  h.src = 0x0a000001;
  h.dst = 0x0a000002;
  h.total_length = 40;
  uint8_t buf[20];
  h.Write(buf);
  EXPECT_EQ(ChecksumPartial(buf), 0xffff);
}

class IncrementalChecksum : public ::testing::TestWithParam<std::pair<uint8_t, uint8_t>> {};

TEST_P(IncrementalChecksum, MatchesFullRecompute) {
  // Property: RFC 1624 incremental update after a TTL change equals a full
  // recompute, across TTL values.
  const auto [ttl_before, protocol] = GetParam();
  Ipv4Header h;
  h.ttl = ttl_before;
  h.protocol = protocol;
  h.src = 0xc0a80101;
  h.dst = 0x0a141e28;
  h.total_length = 100;
  uint8_t buf[20];
  h.Write(buf);
  ASSERT_TRUE(Ipv4Header::Validate(buf));

  ASSERT_TRUE(DecrementTtlInPlace(buf));
  EXPECT_TRUE(Ipv4Header::Validate(buf)) << "incremental checksum broke validation";
  EXPECT_EQ(buf[8], ttl_before - 1);
}

INSTANTIATE_TEST_SUITE_P(TtlSweep, IncrementalChecksum,
                         ::testing::Values(std::make_pair(uint8_t{2}, uint8_t{6}),
                                           std::make_pair(uint8_t{3}, uint8_t{17}),
                                           std::make_pair(uint8_t{16}, uint8_t{6}),
                                           std::make_pair(uint8_t{64}, uint8_t{17}),
                                           std::make_pair(uint8_t{128}, uint8_t{1}),
                                           std::make_pair(uint8_t{255}, uint8_t{6})));

TEST(Checksum, TtlOneRefusesDecrement) {
  Ipv4Header h;
  h.ttl = 1;
  uint8_t buf[20];
  h.Write(buf);
  EXPECT_FALSE(DecrementTtlInPlace(buf));
}

// --- headers ---

TEST(Ethernet, RoundTrip) {
  EthernetHeader h;
  h.dst = PortMac(3);
  h.src = PortMac(7);
  h.ethertype = kEtherTypeIpv4;
  uint8_t buf[14];
  h.Write(buf);
  auto parsed = EthernetHeader::Parse(buf);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->dst, h.dst);
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->ethertype, kEtherTypeIpv4);
}

TEST(Ethernet, TooShortFails) {
  uint8_t buf[10] = {};
  EXPECT_FALSE(EthernetHeader::Parse(buf));
}

TEST(Ethernet, MacToStringFormats) {
  EXPECT_EQ(MacToString(PortMac(5)), "02:00:00:00:00:05");
}

TEST(Ipv4, RoundTripWithOptions) {
  Ipv4Header h;
  h.src = 0x01020304;
  h.dst = 0x05060708;
  h.ttl = 9;
  h.protocol = kIpProtoTcp;
  h.total_length = 60;
  h.options = {0x07, 0x04, 0x04, 0x00};
  uint8_t buf[24];
  h.Write(buf);
  auto parsed = Ipv4Header::Parse(buf);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->ihl, 6);
  EXPECT_TRUE(parsed->has_options());
  EXPECT_EQ(parsed->options, h.options);
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_TRUE(Ipv4Header::Validate(buf));
}

TEST(Ipv4, ValidateRejectsCorruption) {
  Ipv4Header h;
  h.total_length = 40;
  uint8_t buf[20];
  h.Write(buf);
  buf[12] ^= 0x40;  // flip a src-address bit
  EXPECT_FALSE(Ipv4Header::Validate(buf));
}

TEST(Ipv4, ValidateRejectsBadVersion) {
  uint8_t buf[20] = {};
  buf[0] = 0x65;  // version 6
  EXPECT_FALSE(Ipv4Header::Validate(buf));
}

TEST(Ipv4, StringConversions) {
  EXPECT_EQ(Ipv4ToString(0x0a010203), "10.1.2.3");
  EXPECT_EQ(Ipv4FromString("192.168.1.200"), 0xc0a801c8u);
}

TEST(Tcp, RoundTripAndChecksum) {
  std::vector<uint8_t> segment(28, 0);
  for (size_t i = 20; i < segment.size(); ++i) {
    segment[i] = static_cast<uint8_t>(i);
  }
  TcpHeader h;
  h.src_port = 1234;
  h.dst_port = 80;
  h.seq = 0x11223344;
  h.ack = 0x55667788;
  h.flags = kTcpFlagAck | kTcpFlagPsh;
  h.window = 4096;
  h.WriteWithChecksum(segment, 0x0a000001, 0x0a000002);

  auto parsed = TcpHeader::Parse(segment);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->seq, h.seq);
  EXPECT_EQ(parsed->ack, h.ack);
  EXPECT_EQ(parsed->flags, h.flags);
  EXPECT_NE(parsed->checksum, 0);
}

TEST(Udp, RoundTrip) {
  UdpHeader h;
  h.src_port = 53;
  h.dst_port = 5353;
  h.length = 30;
  uint8_t buf[8];
  h.Write(buf);
  auto parsed = UdpHeader::Parse(buf);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->src_port, 53);
  EXPECT_EQ(parsed->dst_port, 5353);
  EXPECT_EQ(parsed->length, 30);
}

// --- packet building ---

class PacketSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(PacketSizes, BuildsValidFrames) {
  PacketSpec spec;
  spec.frame_bytes = GetParam();
  spec.protocol = kIpProtoTcp;
  Packet p = BuildPacket(spec);
  EXPECT_EQ(p.size(), std::clamp<size_t>(GetParam(), 64, 1518));
  auto eth = EthernetHeader::Parse(p.bytes());
  ASSERT_TRUE(eth);
  EXPECT_EQ(eth->ethertype, kEtherTypeIpv4);
  EXPECT_TRUE(Ipv4Header::Validate(p.l3()));
  auto ip = Ipv4Header::Parse(p.l3());
  EXPECT_EQ(ip->total_length, p.size() - kEthHeaderBytes);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PacketSizes,
                         ::testing::Values(60, 64, 65, 128, 512, 1024, 1500, 1518, 2000));

TEST(Packet, MpCount) {
  PacketSpec spec;
  spec.frame_bytes = 64;
  EXPECT_EQ(BuildPacket(spec).mp_count(), 1u);
  spec.frame_bytes = 65;
  EXPECT_EQ(BuildPacket(spec).mp_count(), 2u);
  spec.frame_bytes = 1500;
  EXPECT_EQ(BuildPacket(spec).mp_count(), 24u);  // §3.7: twenty-four 64 B MPs
}

// --- MP segmentation / reassembly ---

class MpRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(MpRoundTrip, SegmentThenReassembleIsIdentity) {
  PacketSpec spec;
  spec.frame_bytes = GetParam();
  spec.protocol = kIpProtoUdp;
  Packet original = BuildPacket(spec);
  original.set_id(777);

  auto mps = SegmentIntoMps(original, 3);
  ASSERT_EQ(mps.size(), original.mp_count());
  EXPECT_TRUE(mps.front().tag.sop);
  EXPECT_TRUE(mps.back().tag.eop);
  for (size_t i = 0; i + 1 < mps.size(); ++i) {
    EXPECT_EQ(mps[i].tag.bytes, 64);
    EXPECT_FALSE(mps[i].tag.eop);
  }

  MpReassembler reassembler;
  std::optional<Packet> out;
  for (const auto& mp : mps) {
    auto result = reassembler.Accept(mp);
    if (result) {
      out = std::move(result);
    }
  }
  ASSERT_TRUE(out);
  EXPECT_EQ(out->id(), 777u);
  ASSERT_EQ(out->size(), original.size());
  EXPECT_TRUE(std::equal(out->bytes().begin(), out->bytes().end(), original.bytes().begin()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MpRoundTrip, ::testing::Values(64, 65, 127, 128, 500, 1500, 1518));

TEST(MpReassembler, MissingSopIsProtocolError) {
  MpReassembler r;
  Mp mp;
  mp.tag.sop = false;
  mp.tag.eop = true;
  mp.tag.bytes = 64;
  EXPECT_FALSE(r.Accept(mp));
  EXPECT_EQ(r.protocol_errors(), 1u);
}

// --- MacPort ---

TEST(MacPort, WireRateCapsAt148_8Kpps) {
  // IEEE 802.3: 64 B frames + 20 B overhead at 100 Mbps = 148.8 Kpps.
  EventQueue engine;
  MacPort port(engine, 0, 100e6, /*rx_buffer_mps=*/100000);
  PacketSpec spec;
  for (int i = 0; i < 2000; ++i) {
    port.InjectFromWire(BuildPacket(spec));
  }
  engine.RunAll();
  const double seconds = static_cast<double>(engine.now()) / kPsPerSec;
  EXPECT_NEAR(2000.0 / seconds, 148'800, 500);
  EXPECT_EQ(port.rx_frames(), 2000u);
}

TEST(MacPort, DropsWholePacketsWhenBufferFull) {
  EventQueue engine;
  MacPort port(engine, 0, 100e6, /*rx_buffer_mps=*/4);
  PacketSpec spec;
  spec.frame_bytes = 256;  // 4 MPs each
  port.InjectFromWire(BuildPacket(spec));
  port.InjectFromWire(BuildPacket(spec));  // does not fit behind the first
  engine.RunAll();
  EXPECT_EQ(port.rx_frames(), 1u);
  EXPECT_EQ(port.rx_dropped(), 1u);
  EXPECT_EQ(port.rx_backlog_mps(), 4u);
}

TEST(MacPort, RxClaimDrainsInOrder) {
  EventQueue engine;
  MacPort port(engine, 2, 100e6);
  PacketSpec spec;
  spec.frame_bytes = 130;  // 3 MPs
  port.InjectFromWire(BuildPacket(spec));
  engine.RunAll();
  ASSERT_TRUE(port.RxReady());
  auto a = port.RxClaim();
  auto b = port.RxClaim();
  auto c = port.RxClaim();
  ASSERT_TRUE(a && b && c);
  EXPECT_TRUE(a->tag.sop);
  EXPECT_TRUE(c->tag.eop);
  EXPECT_EQ(c->tag.bytes, 130 - 128);
  EXPECT_FALSE(port.RxReady());
  EXPECT_EQ(port.rx_mps_claimed(), 3u);
}

TEST(MacPort, TxReassemblesAndDeliversToSink) {
  EventQueue engine;
  MacPort port(engine, 1, 100e6);
  std::optional<Packet> delivered;
  port.SetSink([&](Packet&& p) { delivered = std::move(p); });
  PacketSpec spec;
  spec.frame_bytes = 200;
  Packet original = BuildPacket(spec);
  original.set_id(42);
  for (const auto& mp : SegmentIntoMps(original, 1)) {
    port.TxAccept(mp);
  }
  engine.RunAll();
  ASSERT_TRUE(delivered);
  EXPECT_EQ(delivered->id(), 42u);
  EXPECT_EQ(delivered->size(), original.size());
  EXPECT_EQ(port.tx_frames(), 1u);
}

// --- TrafficGen ---

TEST(TrafficGen, GeneratesAtConfiguredRate) {
  EventQueue engine;
  MacPort port(engine, 0, 100e6, 1 << 20);
  TrafficSpec spec;
  spec.rate_pps = 50'000;
  TrafficGen gen(engine, port, spec, 1);
  gen.Start(10 * kPsPerMs);
  engine.RunUntil(10 * kPsPerMs);
  EXPECT_NEAR(static_cast<double>(gen.generated()), 500.0, 2.0);
}

TEST(TrafficGen, SinglePortPatternTargetsOnePrefix) {
  EventQueue engine;
  MacPort port(engine, 0, 1e9, 1 << 20);
  TrafficSpec spec;
  spec.pattern = TrafficSpec::DstPattern::kSinglePort;
  spec.single_dst_port = 5;
  spec.rate_pps = 100'000;
  TrafficGen gen(engine, port, spec, 2);
  gen.Start(2 * kPsPerMs);
  engine.RunUntil(3 * kPsPerMs);
  int seen = 0;
  while (auto mp = port.RxClaim()) {
    if (mp->tag.sop) {
      auto ip = Ipv4Header::Parse(std::span<const uint8_t>(mp->data).subspan(kEthHeaderBytes));
      ASSERT_TRUE(ip);
      EXPECT_EQ(ip->dst >> 16 & 0xff, 5u);
      ++seen;
    }
  }
  EXPECT_GT(seen, 100);
}

TEST(TrafficGen, ExceptionalFractionCarriesOptions) {
  EventQueue engine;
  MacPort port(engine, 0, 1e9, 1 << 20);
  TrafficSpec spec;
  spec.exceptional_fraction = 1.0;
  spec.rate_pps = 100'000;
  TrafficGen gen(engine, port, spec, 3);
  gen.Start(kPsPerMs);
  engine.RunUntil(2 * kPsPerMs);
  int with_options = 0, total = 0;
  while (auto mp = port.RxClaim()) {
    if (!mp->tag.sop) {
      continue;
    }
    auto ip = Ipv4Header::Parse(std::span<const uint8_t>(mp->data).subspan(kEthHeaderBytes));
    ASSERT_TRUE(ip);
    ++total;
    with_options += ip->has_options();
  }
  EXPECT_GT(total, 50);
  EXPECT_EQ(with_options, total);
}

TEST(TrafficGen, FlowPatternReusesTuples) {
  EventQueue engine;
  MacPort port(engine, 0, 1e9, 1 << 20);
  TrafficSpec spec;
  spec.pattern = TrafficSpec::DstPattern::kFlows;
  spec.num_flows = 4;
  spec.rate_pps = 100'000;
  TrafficGen gen(engine, port, spec, 4);
  gen.Start(2 * kPsPerMs);
  engine.RunUntil(3 * kPsPerMs);
  std::set<uint64_t> tuples;
  while (auto mp = port.RxClaim()) {
    if (!mp->tag.sop) {
      continue;
    }
    auto bytes = std::span<const uint8_t>(mp->data);
    auto ip = Ipv4Header::Parse(bytes.subspan(kEthHeaderBytes));
    ASSERT_TRUE(ip);
    tuples.insert(static_cast<uint64_t>(ip->src) << 32 | ip->dst);
  }
  EXPECT_LE(tuples.size(), 4u);
  EXPECT_GE(tuples.size(), 2u);
}

// --- packet pool ---

TEST(PacketPool, AcquireReleaseRecycles) {
  PacketPool pool;
  FrameBuf* a = pool.TryAcquire(64);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->len, 64u);
  EXPECT_EQ(a->pool, &pool);
  EXPECT_EQ(a->refcount.load(), 1u);
  EXPECT_EQ(pool.outstanding(), 1u);
  a->Unref();
  EXPECT_EQ(pool.outstanding(), 0u);
  // The freed buffer heads the class free list: the next acquire reuses it
  // instead of growing the arena.
  FrameBuf* b = pool.TryAcquire(60);
  EXPECT_EQ(b, a);
  EXPECT_EQ(b->len, 60u);
  EXPECT_EQ(pool.slabs_allocated(), 1u);
  b->Unref();
}

TEST(PacketPool, PicksSmallestFittingClassAndRejectsOversize) {
  PacketPool pool;
  FrameBuf* small = pool.TryAcquire(64);
  FrameBuf* mtu = pool.TryAcquire(65);
  FrameBuf* jumbo = pool.TryAcquire(PacketPool::kClassBytes[1] + 1);
  ASSERT_NE(small, nullptr);
  ASSERT_NE(mtu, nullptr);
  ASSERT_NE(jumbo, nullptr);
  EXPECT_EQ(small->capacity, PacketPool::kClassBytes[0]);
  EXPECT_EQ(mtu->capacity, PacketPool::kClassBytes[1]);
  EXPECT_EQ(jumbo->capacity, PacketPool::kClassBytes[2]);
  EXPECT_EQ(pool.TryAcquire(PacketPool::kClassBytes[2] + 1), nullptr);
  EXPECT_EQ(pool.exhausted(), 1u);
  small->Unref();
  mtu->Unref();
  jumbo->Unref();
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.high_water(), 3u);
}

TEST(PacketPool, CapExhaustionFailsGracefullyAndRecovers) {
  PacketPool pool;
  pool.set_max_frames_per_class(2);
  FrameBuf* a = pool.TryAcquire(64);
  FrameBuf* b = pool.TryAcquire(64);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(pool.TryAcquire(64), nullptr);
  EXPECT_EQ(pool.exhausted(), 1u);
  a->Unref();
  // Releasing one buffer makes the class serviceable again.
  FrameBuf* c = pool.TryAcquire(64);
  EXPECT_NE(c, nullptr);
  b->Unref();
  c->Unref();
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(PacketPool, EveryBufferIsAlignedForItsHeader) {
  // Two slabs per class. A misaligned header lets its atomic refcount
  // straddle a cache line, which turns every Ref/Unref into a bus lock.
  PacketPool pool;
  std::vector<FrameBuf*> bufs;
  for (uint32_t bytes : PacketPool::kClassBytes) {
    for (int i = 0; i < 2 * PacketPool::kSlabFrames; ++i) {
      FrameBuf* buf = pool.TryAcquire(bytes);
      ASSERT_NE(buf, nullptr);
      bufs.push_back(buf);
    }
  }
  EXPECT_EQ(pool.slabs_allocated(), 2u * PacketPool::kNumClasses);
  for (FrameBuf* buf : bufs) {
    const auto addr = reinterpret_cast<uintptr_t>(buf);
    const auto rc = reinterpret_cast<uintptr_t>(&buf->refcount);
    EXPECT_EQ(addr % alignof(FrameBuf), 0u) << "capacity " << buf->capacity;
    EXPECT_EQ(rc / 64, (rc + sizeof(buf->refcount) - 1) / 64) << "capacity " << buf->capacity;
  }
  for (FrameBuf* buf : bufs) {
    buf->Unref();
  }
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(PacketPool, HeapBuffersBypassTheLedger) {
  PacketPool pool;
  FrameBuf* h = PacketPool::AcquireHeap(2000);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->pool, nullptr);
  EXPECT_EQ(h->len, 2000u);
  EXPECT_EQ(pool.acquires(), 0u);
  h->Unref();  // frees, no pool involved
}

TEST(Packet, CopiesShareTheFrameBufAndMakeOwnedDetaches) {
  PacketPool pool;
  FrameBuf* buf = pool.TryAcquire(100);
  ASSERT_NE(buf, nullptr);
  for (uint32_t i = 0; i < 100; ++i) {
    buf->data()[i] = static_cast<uint8_t>(i);
  }
  Packet p = Packet::Adopt(buf);
  EXPECT_TRUE(p.pooled());
  {
    Packet copy = p;  // shares the buffer: still one pool acquire
    EXPECT_EQ(pool.outstanding(), 1u);
    EXPECT_EQ(copy.bytes().data(), p.bytes().data());
  }
  EXPECT_EQ(pool.outstanding(), 1u);
  // MakeOwned copies to a one-off heap buffer and returns the pooled one.
  p.MakeOwned();
  EXPECT_FALSE(p.pooled());
  EXPECT_EQ(pool.outstanding(), 0u);
  ASSERT_EQ(p.size(), 100u);
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(p.bytes()[i], static_cast<uint8_t>(i));
  }
}

TEST(MacPort, PoolExhaustionBecomesGracefulRxLoss) {
  // Cap the port pool so the generator cannot always build a frame: the
  // failures must be counted as rx_pool_exhausted (never offered to the
  // wire), the port must keep forwarding what it can, and the pool ledger
  // must balance once the port drains.
  EventQueue engine;
  MacPort port(engine, 0, 100e6, 1 << 20);
  // One frame per class: any frame still serializing on the wire starves
  // the next acquire. Offered above line rate, exhaustion is guaranteed.
  port.pool().set_max_frames_per_class(1);
  TrafficSpec spec;
  spec.rate_pps = 300'000;
  TrafficGen gen(engine, port, spec, 11);
  gen.Start(5 * kPsPerMs);
  engine.RunUntil(6 * kPsPerMs);
  uint64_t claimed = 0;
  while (port.RxClaim()) {
    ++claimed;
  }
  EXPECT_GT(port.rx_pool_exhausted(), 0u);
  EXPECT_GT(port.rx_frames(), 0u);
  // Conservation: every offered frame landed somewhere.
  EXPECT_EQ(port.rx_offered(), port.rx_frames() + port.rx_dropped());
  EXPECT_EQ(port.pool().outstanding(), port.pooled_in_flight());
}

TEST(MacPort, SinkFramesOutliveThePool) {
  // TxAccept hands frames to the sink as heap-backed copies, so a sink may
  // hold them past the port's lifetime; the pooled originals are returned.
  EventQueue engine;
  std::vector<Packet> kept;
  {
    MacPort port(engine, 1, 1e9, 1 << 20);
    port.SetSink([&](Packet&& p) { kept.push_back(std::move(p)); });
    PacketSpec spec;
    spec.frame_bytes = 200;
    Packet frame = BuildPacket(spec);
    frame.set_id(42);
    for (const Mp& mp : SegmentIntoMps(frame, 1)) {
      port.TxAccept(mp);
    }
    engine.RunAll();
    EXPECT_EQ(port.pool().outstanding(), port.pooled_in_flight());
  }
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_FALSE(kept[0].pooled());
  EXPECT_EQ(kept[0].size(), 200u);
}

}  // namespace
}  // namespace npr

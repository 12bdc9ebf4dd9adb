#include "src/net/packet.h"

#include <algorithm>
#include <cstring>

#include "src/net/tcp.h"
#include "src/net/udp.h"

namespace npr {

Packet::Packet(std::vector<uint8_t> frame) {
  if (frame.empty()) {
    return;
  }
  buf_ = PacketPool::AcquireHeap(static_cast<uint32_t>(frame.size()));
  std::memcpy(buf_->data(), frame.data(), frame.size());
}

void Packet::MakeOwned() {
  if (buf_ == nullptr || buf_->pool == nullptr) {
    return;
  }
  FrameBuf* owned = PacketPool::AcquireHeap(buf_->len);
  std::memcpy(owned->data(), buf_->data(), buf_->len);
  buf_->Unref();
  buf_ = owned;
}

std::span<uint8_t> Packet::l4() {
  auto ip = l3();
  auto header = Ipv4Header::Parse(ip);
  if (!header) {
    return {};
  }
  return ip.subspan(header->header_bytes());
}

void BuildFrameInto(const PacketSpec& spec, std::span<uint8_t> frame) {
  EthernetHeader eth;
  eth.dst = spec.eth_dst;
  eth.src = spec.eth_src;
  eth.ethertype = kEtherTypeIpv4;
  eth.Write(frame);

  Ipv4Header ip;
  ip.tos = 0;
  ip.ttl = spec.ttl;
  ip.protocol = spec.protocol;
  ip.src = spec.src_ip;
  ip.dst = spec.dst_ip;
  // Options, EOL-padded to a multiple of 4 (the array starts zeroed).
  const size_t n_options = std::min(spec.ip_options.size(), kIpv4MaxOptionBytes);
  std::copy_n(spec.ip_options.begin(), n_options, ip.options.begin());
  ip.options_len = static_cast<uint8_t>((n_options + 3) / 4 * 4);
  ip.total_length = static_cast<uint16_t>(frame.size() - kEthHeaderBytes);

  const size_t l3_off = kEthHeaderBytes;
  const size_t l4_off = l3_off + kIpv4MinHeaderBytes + ip.options_len;
  std::span<uint8_t> l4(frame.data() + l4_off, frame.size() - l4_off);

  // Deterministic payload pattern for end-to-end integrity checks.
  const size_t transport_header =
      spec.protocol == kIpProtoTcp ? kTcpMinHeaderBytes
                                   : (spec.protocol == kIpProtoUdp ? kUdpHeaderBytes : 0);
  for (size_t i = transport_header; i < l4.size(); ++i) {
    l4[i] = static_cast<uint8_t>((spec.dst_ip + spec.dst_port + i) & 0xff);
  }

  if (spec.protocol == kIpProtoTcp && l4.size() >= kTcpMinHeaderBytes) {
    TcpHeader tcp;
    tcp.src_port = spec.src_port;
    tcp.dst_port = spec.dst_port;
    tcp.seq = spec.tcp_seq;
    tcp.ack = spec.tcp_ack;
    tcp.flags = spec.tcp_flags;
    tcp.window = 65535;
    tcp.WriteWithChecksum(l4, spec.src_ip, spec.dst_ip);
  } else if (spec.protocol == kIpProtoUdp && l4.size() >= kUdpHeaderBytes) {
    UdpHeader udp;
    udp.src_port = spec.src_port;
    udp.dst_port = spec.dst_port;
    udp.length = static_cast<uint16_t>(l4.size());
    udp.checksum = 0;  // optional in IPv4; generators leave it off
    udp.Write(l4);
  }

  ip.Write(std::span<uint8_t>(frame.data() + l3_off, frame.size() - l3_off));
}

Packet BuildPacket(const PacketSpec& spec) {
  FrameBuf* buf = PacketPool::AcquireHeap(static_cast<uint32_t>(ClampedFrameBytes(spec)));
  std::memset(buf->data(), 0, buf->len);
  BuildFrameInto(spec, std::span<uint8_t>(buf->data(), buf->len));
  return Packet::Adopt(buf);
}

std::span<const uint8_t> MpCursor::Next(MpTag& tag) {
  const size_t off = i_ * 64;
  const size_t len = std::min<size_t>(64, bytes_.size() - off);
  tag.port = port_;
  tag.sop = i_ == 0;
  tag.eop = i_ == n_ - 1;
  tag.bytes = static_cast<uint16_t>(len);
  tag.packet_id = packet_id_;
  ++i_;
  return bytes_.subspan(off, len);
}

bool MpCursor::CopyNext(Mp& out) {
  if (done()) {
    return false;
  }
  const auto span = Next(out.tag);
  std::memcpy(out.data.data(), span.data(), span.size());
  if (span.size() < out.data.size()) {
    std::memset(out.data.data() + span.size(), 0, out.data.size() - span.size());
  }
  return true;
}

MpReassembler::~MpReassembler() {
  if (partial_ != nullptr) {
    partial_->Unref();
  }
}

void MpReassembler::EnsureRoom(uint32_t need) {
  if (partial_ != nullptr && need <= partial_->capacity) {
    return;
  }
  // Take (or grow into) the smallest pooled class that fits, the heap as
  // the backstop. Accept sizes the first buffer of a frame.
  FrameBuf* grown = pool_ != nullptr ? pool_->TryAcquire(need) : nullptr;
  if (grown == nullptr) {
    grown = PacketPool::AcquireHeap(need);
  }
  if (partial_ != nullptr) {
    std::memcpy(grown->data(), partial_->data(), offset_);
    partial_->Unref();
  }
  partial_ = grown;
}

std::optional<Packet> MpReassembler::Accept(const Mp& mp) {
  if (mp.tag.sop) {
    if (in_packet_) {
      ++protocol_errors_;  // previous packet never finished
    }
    if (partial_ != nullptr) {
      partial_->Unref();
      partial_ = nullptr;
    }
    offset_ = 0;
    in_packet_ = true;
    first_tag_ = mp.tag;
    // A frame that ends in its first MP takes only that MP's bytes (the
    // 64-byte class); a longer one starts MTU-sized.
    EnsureRoom(mp.tag.eop ? mp.tag.bytes : kEthMaxFrame);
  } else if (!in_packet_) {
    ++protocol_errors_;
    return std::nullopt;
  }
  EnsureRoom(offset_ + mp.tag.bytes);
  std::memcpy(partial_->data() + offset_, mp.data.data(), mp.tag.bytes);
  offset_ += mp.tag.bytes;
  if (!mp.tag.eop) {
    return std::nullopt;
  }
  in_packet_ = false;
  partial_->len = offset_;
  Packet packet = Packet::Adopt(partial_);
  partial_ = nullptr;
  packet.set_id(first_tag_.packet_id);
  return packet;
}

}  // namespace npr

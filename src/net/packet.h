// Packet representation, builders, and MAC-packet (MP) segmentation.
//
// A Packet is a refcounted view over a FrameBuf holding a full Ethernet
// frame as real bytes (src/net/packet_pool.h): copying a Packet shares the
// buffer, and the last view returns it to its pool. The MAC hardware splits
// every frame into 64-byte MPs tagged first/intermediate/last/only (§3.1);
// MpCursor/MpReassembler model exactly that without allocating per packet.
// Simulator-side metadata (id, timestamps, arrival port) rides alongside
// the bytes for end-to-end verification and latency measurement.

#ifndef SRC_NET_PACKET_H_
#define SRC_NET_PACKET_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/ixp/fifo.h"
#include "src/net/ethernet.h"
#include "src/net/ipv4.h"
#include "src/net/packet_pool.h"
#include "src/sim/time.h"

namespace npr {

// One 64-byte MAC-packet plus its MAC tag.
struct Mp {
  std::array<uint8_t, 64> data{};
  MpTag tag;
};

class Packet {
 public:
  Packet() = default;
  // Compatibility path (tests, control plane): copies the bytes into a
  // one-off heap-backed FrameBuf.
  explicit Packet(std::vector<uint8_t> frame);

  // Wraps a buffer that already carries one reference (the result of
  // PacketPool::TryAcquire / AcquireHeap); the Packet now owns that ref.
  static Packet Adopt(FrameBuf* buf) {
    Packet p;
    p.buf_ = buf;
    return p;
  }

  Packet(const Packet& o)
      : buf_(o.buf_), id_(o.id_), arrival_port_(o.arrival_port_), created_(o.created_) {
    if (buf_ != nullptr) {
      buf_->Ref();
    }
  }
  Packet& operator=(const Packet& o) {
    if (this != &o) {
      FrameBuf* old = buf_;
      buf_ = o.buf_;
      if (buf_ != nullptr) {
        buf_->Ref();
      }
      id_ = o.id_;
      arrival_port_ = o.arrival_port_;
      created_ = o.created_;
      if (old != nullptr) {
        old->Unref();
      }
    }
    return *this;
  }
  Packet(Packet&& o) noexcept
      : buf_(o.buf_), id_(o.id_), arrival_port_(o.arrival_port_), created_(o.created_) {
    o.buf_ = nullptr;
  }
  Packet& operator=(Packet&& o) noexcept {
    if (this != &o) {
      FrameBuf* old = buf_;
      buf_ = o.buf_;
      id_ = o.id_;
      arrival_port_ = o.arrival_port_;
      created_ = o.created_;
      o.buf_ = nullptr;
      if (old != nullptr) {
        old->Unref();
      }
    }
    return *this;
  }
  ~Packet() {
    if (buf_ != nullptr) {
      buf_->Unref();
    }
  }

  std::span<uint8_t> bytes() {
    return buf_ != nullptr ? std::span<uint8_t>(buf_->data(), buf_->len) : std::span<uint8_t>();
  }
  std::span<const uint8_t> bytes() const {
    return buf_ != nullptr ? std::span<const uint8_t>(buf_->data(), buf_->len)
                           : std::span<const uint8_t>();
  }
  size_t size() const { return buf_ != nullptr ? buf_->len : 0; }

  // View of the IP header + payload (after the Ethernet header).
  std::span<uint8_t> l3() { return bytes().subspan(kEthHeaderBytes); }
  std::span<const uint8_t> l3() const { return bytes().subspan(kEthHeaderBytes); }
  // View of the transport header + payload; empty if the IP header is bad.
  std::span<uint8_t> l4();

  // Number of MPs the MAC will split this frame into.
  size_t mp_count() const { return (size() + 63) / 64; }

  // Cuts the frame short (wire truncation fault). Always keeps at least the
  // Ethernet header plus one byte so l3() stays a valid view. Mutates the
  // shared buffer; only meaningful before the frame is shared.
  void Truncate(size_t n) {
    const size_t floor = kEthHeaderBytes + 1;
    if (buf_ != nullptr && n < buf_->len) {
      buf_->len = static_cast<uint32_t>(n < floor ? floor : n);
    }
  }

  // True when the frame lives in a (single-threaded, port-owned) pool.
  bool pooled() const { return buf_ != nullptr && buf_->pool != nullptr; }
  // Copies a pooled frame into a one-off heap buffer and drops the pool
  // ref, so the packet may outlive the pool and cross shard threads.
  // MacPort calls this before handing frames to its sink. No-op when the
  // frame is already heap-backed.
  void MakeOwned();

  // --- simulator metadata ---
  uint32_t id() const { return id_; }
  void set_id(uint32_t id) { id_ = id; }
  uint8_t arrival_port() const { return arrival_port_; }
  void set_arrival_port(uint8_t p) { arrival_port_ = p; }
  SimTime created() const { return created_; }
  void set_created(SimTime t) { created_ = t; }

 private:
  FrameBuf* buf_ = nullptr;
  uint32_t id_ = 0;
  uint8_t arrival_port_ = 0;
  SimTime created_ = 0;
};

// Declarative packet builder used by traffic generators, tests, examples.
struct PacketSpec {
  MacAddr eth_src = PortMac(0);
  MacAddr eth_dst = PortMac(1);
  uint32_t src_ip = 0x0a000001;  // 10.0.0.1
  uint32_t dst_ip = 0x0a010001;  // 10.1.0.1
  uint8_t ttl = 64;
  uint8_t protocol = kIpProtoUdp;
  std::vector<uint8_t> ip_options;  // multiple of 4 bytes; non-empty = exceptional path
  uint16_t src_port = 1024;
  uint16_t dst_port = 80;
  uint8_t tcp_flags = 0x10;  // ACK
  uint32_t tcp_seq = 0;
  uint32_t tcp_ack = 0;
  // Total frame size incl. Ethernet header; padded/clamped to [64, 1518].
  size_t frame_bytes = 64;
};

// The clamped on-wire size BuildPacket/BuildFrameInto will produce.
inline size_t ClampedFrameBytes(const PacketSpec& spec) {
  return spec.frame_bytes < kEthMinFrame
             ? kEthMinFrame
             : (spec.frame_bytes > kEthMaxFrame ? kEthMaxFrame : spec.frame_bytes);
}

// Writes a fully valid frame (correct IP and transport checksums) into a
// caller-provided buffer of exactly ClampedFrameBytes(spec) zeroed bytes.
// TrafficGen uses this to build frames in place in pooled buffers.
void BuildFrameInto(const PacketSpec& spec, std::span<uint8_t> frame);

// Builds a fully valid frame in a heap-backed Packet.
Packet BuildPacket(const PacketSpec& spec);

// Allocation-free MP segmentation: walks a frame 64 bytes at a time,
// yielding the payload span and MAC tag of each MP, as the receiving MAC
// does. The frame must stay alive while the cursor is in use.
class MpCursor {
 public:
  MpCursor(const Packet& packet, uint8_t port)
      : bytes_(packet.bytes()),
        n_((bytes_.size() + 63) / 64),
        packet_id_(packet.id()),
        port_(port) {}

  bool done() const { return i_ >= n_; }
  size_t mp_count() const { return n_; }

  // Returns the next MP's bytes (up to 64) and fills its tag.
  std::span<const uint8_t> Next(MpTag& tag);
  // Copies the next MP into `out`, zero-padding data to 64 bytes.
  bool CopyNext(Mp& out);

 private:
  std::span<const uint8_t> bytes_;
  size_t n_;
  size_t i_ = 0;
  uint32_t packet_id_;
  uint8_t port_;
};

// Rebuilds frames from MPs arriving in order, as the transmitting MAC does.
// One instance per output port. With a pool attached the partial frame is
// assembled directly in a pooled buffer: the 64-byte class for a frame of
// one MP, MTU-class for a longer one (heap fallback when the pool is capped
// out, so reassembly never wedges the TX path).
class MpReassembler {
 public:
  MpReassembler() = default;
  explicit MpReassembler(PacketPool* pool) : pool_(pool) {}
  ~MpReassembler();

  MpReassembler(const MpReassembler&) = delete;
  MpReassembler& operator=(const MpReassembler&) = delete;

  void set_pool(PacketPool* pool) { pool_ = pool; }

  // Consumes one MP; returns the completed packet on eop.
  std::optional<Packet> Accept(const Mp& mp);

  // MPs that arrived out of protocol (e.g. intermediate without sop).
  uint64_t protocol_errors() const { return protocol_errors_; }

  // Pool-ledger hook: 1 while a pooled partial frame is held mid-assembly.
  uint64_t pooled_partials() const {
    return partial_ != nullptr && partial_->pool != nullptr ? 1 : 0;
  }

 private:
  void EnsureRoom(uint32_t need);

  PacketPool* pool_ = nullptr;
  FrameBuf* partial_ = nullptr;
  uint32_t offset_ = 0;
  MpTag first_tag_;
  bool in_packet_ = false;
  uint64_t protocol_errors_ = 0;
};

}  // namespace npr

#endif  // SRC_NET_PACKET_H_

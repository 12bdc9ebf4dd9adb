// MAC port model (§2.2, §3.1).
//
// The evaluation board has 8 x 100 Mbps + 2 x 1 Gbps Ethernet ports. Each
// receiving MAC serializes the wire (preamble + frame + inter-frame gap),
// splits frames into tagged 64-byte MPs, and buffers them in port memory
// until the input contexts DMA them into the receive FIFO. The transmit
// side reassembles MPs back into frames and paces them onto the wire.
//
// Each port owns a PacketPool: the traffic generator builds RX frames in
// the pool, the TX reassembler assembles frames in the pool, and every
// pooled frame is released inside the port — frames handed to the sink are
// first copied to a one-off heap buffer (Packet::MakeOwned), so pooled
// buffers never outlive the port or cross shard threads.

#ifndef SRC_NET_MAC_PORT_H_
#define SRC_NET_MAC_PORT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "src/net/packet.h"
#include "src/net/packet_pool.h"
#include "src/net/rx_governor.h"
#include "src/sim/event_queue.h"
#include "src/sim/stats.h"

namespace npr {

class FaultInjector;
class Observer;

// Preamble (8) + inter-frame gap (12) per IEEE 802.3; with a 64-byte frame
// this yields the standard 148.8 Kpps maximum on 100 Mbps Ethernet.
inline constexpr size_t kEthWireOverheadBytes = 20;

class MacPort {
 public:
  // `rx_buffer_mps` bounds port receive memory; packets that do not fit are
  // dropped in their entirety (tail drop at the MAC).
  MacPort(EventQueue& engine, uint8_t id, double bits_per_sec, size_t rx_buffer_mps = 512);

  MacPort(const MacPort&) = delete;
  MacPort& operator=(const MacPort&) = delete;

  uint8_t id() const { return id_; }
  double bits_per_sec() const { return bits_per_sec_; }
  // The engine this port's wire events run on — the owning node's shard in
  // a cluster (the switch fabric schedules injections here).
  EventQueue& engine() { return engine_; }

  // The port's frame-buffer pool. TrafficGen acquires RX frames here; the
  // TX reassembler assembles into it.
  PacketPool& pool() { return pool_; }
  const PacketPool& pool() const { return pool_; }

  // --- receive side (wire -> router) ---

  // Offers a frame to the wire. Reception completes (and MPs appear) after
  // wire serialization; back-to-back frames queue behind each other.
  void InjectFromWire(Packet packet);

  // True when at least one received MP waits in port memory (port_rdy(p)).
  bool RxReady() const { return !rx_mps_.empty(); }

  // Claims the next MP for a DMA transfer (removed from port memory).
  std::optional<Mp> RxClaim();

  // --- transmit side (router -> wire) ---

  // True when the MAC can take another MP (bounded transmit buffer; the
  // forwarding code must "keep pace with each port's line speed", §3.1 —
  // the output scheduler skips ports whose MAC is backed up).
  bool TxReady() const { return tx_backlog_mps_ < tx_buffer_mps_; }
  size_t tx_backlog_mps() const { return tx_backlog_mps_; }

  // Accepts one MP from the transmit DMA; on end-of-packet the reassembled
  // frame is paced onto the wire and handed to the sink.
  void TxAccept(const Mp& mp);

  // Receives frames leaving on this port's wire.
  void SetSink(std::function<void(Packet&&)> sink) { sink_ = std::move(sink); }

  // Fault injection: wire-side receive faults (CRC drops, header
  // corruption, truncation, RX stalls).
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }

  // Observability: stamps frame arrival/departure spans.
  void set_tracer(Observer* tracer) { tracer_ = tracer; }

  // Overload governance: every received frame is offered to the governor
  // before it consumes port memory. Control frames (kAcceptPriority) are
  // exempt from tail drop and spliced ahead of queued data frames — never
  // mid-frame, so partially claimed assemblies stay intact.
  void set_governor(RxGovernorHooks* governor) { governor_ = governor; }

  // --- statistics ---
  // MAC RX accounting (RouterInvariants): every offered frame must land in
  // exactly one of the sinks below —
  //   rx_offered == rx_crc_dropped + rx_dropped + gov_red_dropped
  //               + gov_policed + gov_quenched + rx_frames.
  // (rx_pool_exhausted frames were never offered: the generator could not
  // acquire a buffer, so no frame reached the wire.)
  uint64_t rx_offered() const { return rx_offered_; }
  uint64_t rx_frames() const { return rx_frames_; }
  uint64_t rx_dropped() const { return rx_dropped_; }
  uint64_t rx_crc_dropped() const { return rx_crc_dropped_; }
  uint64_t gov_red_dropped() const { return gov_red_dropped_; }
  uint64_t gov_policed() const { return gov_policed_; }
  uint64_t gov_quenched() const { return gov_quenched_; }
  uint64_t rx_priority_frames() const { return rx_priority_frames_; }
  uint64_t rx_mps_claimed() const { return rx_mps_claimed_; }
  uint64_t tx_frames() const { return tx_frames_; }
  size_t rx_backlog_mps() const { return rx_mps_.size(); }
  size_t rx_buffer_capacity_mps() const { return rx_buffer_mps_; }

  // Frames the source could not build because the pool was capped out.
  uint64_t rx_pool_exhausted() const { return rx_pool_exhausted_; }
  void CountRxPoolExhausted() { ++rx_pool_exhausted_; }

  // Pool-ledger hook (RouterInvariants): pooled frames currently held by
  // this port — in flight on the RX or TX wire, or mid-reassembly. At any
  // event boundary pool().outstanding() must equal this.
  uint64_t pooled_in_flight() const;

 private:
  struct TxPending {
    Packet packet;
    size_t frame_mps;
  };

  SimTime WireTime(size_t frame_bytes) const;
  void RxWireDone();
  void TxWireDone();

  EventQueue& engine_;
  const uint8_t id_;
  const double bits_per_sec_;
  const size_t rx_buffer_mps_;

  // Transmit buffer: 32 MPs (a maximal frame plus headroom).
  const size_t tx_buffer_mps_ = 32;
  size_t tx_backlog_mps_ = 0;
  SimTime rx_wire_busy_until_ = 0;
  SimTime tx_wire_busy_until_ = 0;
  std::deque<Mp> rx_mps_;
  PacketPool pool_;
  // Frames in flight on each wire, in completion order: wire busy times are
  // monotonic, so completions are FIFO and the events carry no payload —
  // a raw callback pops the head (no per-frame heap-boxed closure).
  std::deque<Packet> rx_pending_;
  std::deque<TxPending> tx_pending_;
  MpReassembler tx_reassembler_{&pool_};
  std::function<void(Packet&&)> sink_;
  FaultInjector* fault_ = nullptr;
  Observer* tracer_ = nullptr;
  RxGovernorHooks* governor_ = nullptr;

  uint64_t rx_offered_ = 0;
  uint64_t rx_frames_ = 0;
  uint64_t rx_dropped_ = 0;
  uint64_t rx_crc_dropped_ = 0;
  uint64_t gov_red_dropped_ = 0;
  uint64_t gov_policed_ = 0;
  uint64_t gov_quenched_ = 0;
  uint64_t rx_priority_frames_ = 0;
  uint64_t rx_mps_claimed_ = 0;
  uint64_t tx_frames_ = 0;
  uint64_t rx_pool_exhausted_ = 0;
};

}  // namespace npr

#endif  // SRC_NET_MAC_PORT_H_

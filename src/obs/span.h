// Per-packet span records (observability layer).
//
// A span is one (sim-time, unit, point) stamp on a packet's journey through
// the router: MAC RX -> input context -> queue -> output context -> MAC TX,
// plus the StrongARM (path B) and Pentium (path C) detours. Records are
// fixed-size and the recording path is allocation-free.

#ifndef SRC_OBS_SPAN_H_
#define SRC_OBS_SPAN_H_

#include <cstdint>

namespace npr {

// Where in the pipeline a span was stamped. Names are stable: the golden
// trace file and docs/observability.md depend on them.
enum class SpanPoint : uint8_t {
  // --- wire / MAC ---
  kMacRxFrame = 0,   // frame fully received into port memory
  kMacTxFrame,       // reassembled frame paced onto the wire

  // --- input contexts (path A ingress) ---
  kPktIngress,       // SOP MP claimed, buffer allocated (ingress accounting point)
  kInClassified,     // route/VRP classification done (arg = disposition)
  kInEnqueued,       // EOP accepted into a plan output queue (arg = out port)
  kInToSa,           // EOP handed to the StrongARM local queue (path B)
  kInToPe,           // EOP handed to the Pentium-bound queue (path C)

  // --- terminal drops (each adjacent to its RouterStats counter) ---
  kDropInvalid,      // failed header validation
  kDropVrp,          // VRP policy drop
  kDropQueueFull,    // bounded queue rejected the descriptor
  kDropNoBuffer,     // buffer pool exhausted before ingress accounting

  // --- packet queues (descriptor level; packet_id is the buffer index) ---
  kQueuePush,
  kQueuePop,
  kQueueCorrupt,     // descriptor corrupted on pop; packet lost

  // --- output contexts ---
  kOutDequeued,      // descriptor popped and validated (arg = out port)
  kOutLostLap,       // buffer reuse lapped the queue; original packet lost
  kPktTxComplete,    // last MP streamed to the MAC; forwarded (arg = out port)

  // --- StrongARM bridge (path B) ---
  kSaDequeued,       // StrongARM picked the packet from its local queue
  kSaForwarded,      // slow-path forwarder re-enqueued it to an output queue
  kSaReturnEnqueued, // Pentium-returned packet re-enqueued to an output queue
  kSaAbsorbed,       // forwarder consumed the packet locally
  kSaLapped,         // lapped while waiting for the StrongARM
  kSaShedPe,         // shed because the Pentium path is degraded
  kIcmpOriginated,   // StrongARM sourced an ICMP packet (new chain)

  // --- Pentium host (path C) ---
  kBridgeToPe,       // bridge issued the PCI/I2O DMA toward the Pentium
  kPeIntake,         // Pentium picked the packet off the inbound I2O frame
  kPeServiced,       // Pentium forwarder finished (arg = out port)
  kPeAbsorbed,       // Pentium consumed/dropped the packet
  kPeReturned,       // return DMA landed back at the StrongARM

  // --- faults and recovery ---
  kFault,            // a FaultInjector hook fired (arg = FaultKind)
  kRecovery,         // the HealthMonitor repaired something (arg = RecoveryEvent kind)

  // --- overload governor (appended; numbering above is stable) ---
  kDropGovRed,       // stage 1: RED early drop at MAC RX (pre-ingress)
  kDropGovPolice,    // stage 2: heavy-hitter policing at MAC RX (pre-ingress)
  kDropGovQuench,    // stage 4: hard shed at MAC RX (pre-ingress)
  kSaShedGov,        // stage 3: bridge shed host-bound work under overload
  kGovStage,         // governor ladder transition (arg = new stage)

  kCount
};

inline constexpr int kSpanPointCount = static_cast<int>(SpanPoint::kCount);

// Short stable name for traces and dumps (e.g. "in.enqueued").
const char* SpanPointName(SpanPoint p);

// Terminal points end a packet's chain. Lap points (kOutLostLap, kSaLapped)
// are terminal for accounting but carry the *successor* packet's id (the
// original id is unrecoverable once the buffer is overwritten), so the
// tracker must not erase on them; IsErasingTerminal distinguishes the two.
inline constexpr bool IsTerminal(SpanPoint p) {
  switch (p) {
    case SpanPoint::kDropInvalid:
    case SpanPoint::kDropVrp:
    case SpanPoint::kDropQueueFull:
    case SpanPoint::kDropNoBuffer:
    case SpanPoint::kOutLostLap:
    case SpanPoint::kPktTxComplete:
    case SpanPoint::kSaAbsorbed:
    case SpanPoint::kSaLapped:
    case SpanPoint::kSaShedPe:
    case SpanPoint::kPeAbsorbed:
    case SpanPoint::kDropGovRed:
    case SpanPoint::kDropGovPolice:
    case SpanPoint::kDropGovQuench:
    case SpanPoint::kSaShedGov:
      return true;
    default:
      return false;
  }
}

inline constexpr bool IsErasingTerminal(SpanPoint p) {
  return IsTerminal(p) && p != SpanPoint::kOutLostLap && p != SpanPoint::kSaLapped;
}

// Executing unit encoding for SpanRecord::unit. MicroEngine contexts map to
// me*4+ctx (0..23); fixed codes cover everything that is not a context.
inline constexpr uint8_t kUnitMacBase = 0xA0;   // MAC port p -> 0xA0 + p
inline constexpr uint8_t kUnitQueue = 0xC0;     // packet-queue subsystem
inline constexpr uint8_t kUnitStrongArm = 0xF0;
inline constexpr uint8_t kUnitPentium = 0xF1;
inline constexpr uint8_t kUnitHealth = 0xF2;
inline constexpr uint8_t kUnitGovernor = 0xF3;
inline constexpr uint8_t kUnitNone = 0xFF;

inline constexpr uint8_t ContextUnit(uint8_t me_id, uint8_t ctx_index) {
  return static_cast<uint8_t>(me_id * 4 + ctx_index);
}

// One stamp. 16 bytes, trivially copyable; the flight-recorder ring and the
// golden-trace capture are arrays of these.
struct SpanRecord {
  uint64_t t_ps = 0;       // simulated time of the stamp
  uint32_t packet_id = 0;  // Packet::id(); buffer index for kQueue* points
  uint8_t point = 0;       // SpanPoint
  uint8_t unit = 0;        // executing unit (see encoding above)
  uint16_t arg = 0;        // point-specific (port, disposition, fault kind, ...)
};

static_assert(sizeof(SpanRecord) == 16, "span records are packed to 16 bytes");

}  // namespace npr

#endif  // SRC_OBS_SPAN_H_

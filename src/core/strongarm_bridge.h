// StrongARM minimal OS (§3.6, §4.1).
//
// The StrongARM deliberately runs no general-purpose OS: it (1) bridges
// packets between the MicroEngines and the Pentium over PCI/I2O, and
// (2) services a small set of local forwarders (route-cache misses via the
// full CPE lookup, IP options via full IP, and any installed SA-level
// flows). Pentium-bound traffic takes strict priority over local work.
// Polling is the default (526 Kpps); interrupt mode is provided and — as
// the paper found — measurably slower.

#ifndef SRC_CORE_STRONGARM_BRIDGE_H_
#define SRC_CORE_STRONGARM_BRIDGE_H_

#include <cstdint>
#include <map>

#include "src/core/classifier.h"
#include "src/core/prop_share.h"
#include "src/core/router_core.h"
#include "src/ixp/i2o_queue.h"
#include "src/sim/task.h"

namespace npr {

class OutputStage;
class PentiumHost;

class StrongArmBridge {
 public:
  StrongArmBridge(RouterCore& core, Classifier& classifier);

  void Start();

  // Doorbell from the input contexts (used in interrupt mode) and from the
  // Pentium return path.
  void Notify();

  // Table 4 mode: ignore the real queues and feed synthesized packets of
  // `frame_bytes` to the Pentium as fast as possible, consuming the echo.
  void EnableFeedMode(size_t frame_bytes, bool move_full_frame);

  // I2O logical queues (a free/full pair per direction, §3.7).
  I2oQueuePair& to_pentium() { return to_pentium_; }
  I2oQueuePair& from_pentium() { return from_pentium_; }

  // Host-side staging: buffer-pointer -> packet, filled when the PCI DMA
  // completes (what the Pentium finds in its host memory buffer).
  std::map<uint32_t, HostPacket>& staging() { return staging_; }

  uint64_t bridged_to_pentium() const { return bridged_to_pentium_; }
  uint64_t returned_from_pentium() const { return returned_; }
  uint64_t local_processed() const { return local_processed_; }
  uint64_t feed_roundtrips() const { return feed_roundtrips_; }

  // Pool-ledger hook (RouterInvariants): frames from the router pool the
  // SA loop currently holds live across a suspension (0 or 1 — the loop
  // materializes at most one packet at a time).
  int pooled_live() const { return pooled_live_; }

 private:
  Task SaLoop();
  // Posts `bytes` of the packet across PCI into the next free host buffer
  // (the caller checked that one is free); the DMA completion stages it,
  // publishes the pointer and rings the Pentium's doorbell (§3.7).
  void HandToPentium(const PacketDescriptor& desc, uint32_t bytes);

  RouterCore& core_;
  Classifier& classifier_;
  I2oQueuePair to_pentium_;
  I2oQueuePair from_pentium_;
  std::map<uint32_t, HostPacket> staging_;
  uint32_t next_host_buffer_ = 1;

  // Stride state for the §4.1 proportional-share option.
  double pentium_pass_ = 0;
  double local_pass_ = 0;

  bool feed_mode_ = false;
  size_t feed_frame_bytes_ = 64;
  bool feed_move_full_ = true;

  uint64_t bridged_to_pentium_ = 0;
  uint64_t returned_ = 0;
  uint64_t local_processed_ = 0;
  uint64_t feed_roundtrips_ = 0;
  int pooled_live_ = 0;
};

// Wakes the StrongARM (no-op when polling and awake). Free function so the
// input stage does not need the full bridge definition.
void NotifyBridge(StrongArmBridge& bridge);

}  // namespace npr

#endif  // SRC_CORE_STRONGARM_BRIDGE_H_

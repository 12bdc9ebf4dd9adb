// Input pipeline stage (§3.2, Figure 5).
//
// A statically allocated set of MicroEngine contexts runs the input loop:
// acquire the token (which serializes the DMA state machine), claim the
// next MP from the context's port, DMA it into the receive FIFO, copy it to
// registers, run protocol processing (classifier + VRP forwarders), copy it
// to DRAM, and — on the packet's last MP — enqueue a descriptor toward the
// output stage, the StrongARM, or the Pentium.
//
// The token rotation interleaves MicroEngines and places the two contexts
// serving the same port maximally far apart (§3.2.2). All costs charged
// here follow the StageCosts decomposition of Table 2.

#ifndef SRC_CORE_INPUT_STAGE_H_
#define SRC_CORE_INPUT_STAGE_H_

#include <memory>
#include <vector>

#include "src/core/classifier.h"
#include "src/core/router_core.h"
#include "src/ixp/token_ring.h"
#include "src/net/packet.h"
#include "src/sim/random.h"
#include "src/sim/task.h"

namespace npr {

class InputStage {
 public:
  InputStage(RouterCore& core, Classifier& classifier);

  // Installs and starts the context programs. Call once.
  void Start();

  TokenRing& token_ring() { return ring_; }
  int num_contexts() const { return static_cast<int>(members_.size()); }

  // Health-monitor recovery interface. RecoverContext reinstalls a crashed
  // context whose scheduled restart was lost; it is a no-op if the context
  // is up (or a restart already ran), so watchdog and normal restart can
  // race safely.
  void RecoverContext(int ctx_index);
  bool ContextDown(int ctx_index) const;
  SimTime ContextDownSincePs(int ctx_index) const;

  // Synthetic packets generated in InfiniteFifo mode.
  uint64_t synthetic_generated() const { return synthetic_seq_; }

  // Ports with a packet mid-assembly (counted for packet conservation).
  int partial_assemblies() const;

 private:
  // What one token-holding claim produced: an MP plus its DRAM placement
  // and (from the first MP) the packet's disposition.
  struct Disposition {
    enum class Act : uint8_t { kQueue, kStrongArm, kPentium, kDrop };
    Act act = Act::kDrop;
    uint8_t out_port = 0;
    uint32_t priority = 0;
    const FlowMeta* flow = nullptr;
  };
  struct Claim {
    Mp mp;
    uint32_t mp_addr = 0;      // DRAM address for this MP
    uint32_t buffer_addr = 0;  // packet's buffer base
    uint16_t mp_index = 0;
    uint64_t generation = 0;
    Disposition disp;          // valid on eop (sticky from sop)
  };
  // Per-port packet assembly state, updated under the token.
  struct PortAssembly {
    bool in_packet = false;
    uint32_t buffer_addr = 0;
    uint16_t next_mp = 0;
    uint64_t generation = 0;
    Disposition disp;
  };

  Task ContextLoop(HwContext& ctx, int member, int ctx_index, uint8_t port);

  // Reinstalls a crashed context's loop and rejoins it to the token ring.
  void RestartContext(int ctx_index);

  // Claims the next MP (real port or synthesized), allocating a buffer on
  // start-of-packet. Runs inside the token critical section.
  bool ClaimNext(uint8_t port, int ctx_index, Claim* claim);

  // Classifies the first MP and applies the minimal-IP transform in place.
  // Returns the VRP cost to charge (per-flow program + general chain).
  // `packet_id`/`obs_unit` identify the packet and executing context for
  // span records emitted next to the drop/trap counters.
  Disposition ClassifyFirstMp(std::span<uint8_t> mp_bytes, uint8_t arrival_port,
                              VrpCost* vrp_cost, uint32_t packet_id, uint8_t obs_unit);

  // Runs one MicroEngine forwarder, per-flow or general, on the first MP:
  // the upgrade shadow hooks around it, an injected trap, its metered cost
  // (added to `vrp_cost`), and its verdict. setq sets `disp`'s priority
  // (clamped to the configured queues); drop, except and trap set `disp`'s
  // act and end the packet's chain, which the false return reports.
  bool RunForwarder(const VrpProgram& program, uint32_t program_id, uint32_t state_addr,
                    std::span<uint8_t> mp_bytes, VrpCost* vrp_cost, Disposition* disp,
                    uint32_t packet_id, uint8_t obs_unit, uint8_t arrival_port);

  Mp SynthesizeMp(int ctx_index);

  RouterCore& core_;
  Classifier& classifier_;
  TokenRing ring_;
  std::vector<HwContext*> members_;  // ring order
  std::vector<int> member_index_;    // ring member id per context (restart)
  std::vector<uint8_t> port_of_;     // port served per context (restart)
  std::vector<PortAssembly> assembly_;
  Rng rng_;
  uint64_t synthetic_seq_ = 0;
  // One pre-built 64-byte frame per destination port (InfiniteFifo mode).
  std::vector<Packet> templates_;
};

}  // namespace npr

#endif  // SRC_CORE_INPUT_STAGE_H_

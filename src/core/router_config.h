// Router configuration: pipeline shape, queueing disciplines, stage cost
// decomposition, and workload-independent policy.

#ifndef SRC_CORE_ROUTER_CONFIG_H_
#define SRC_CORE_ROUTER_CONFIG_H_

#include <cstdint>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/ixp/hw_config.h"
#include "src/vrp/budget.h"

namespace npr {

// Input-side queue management (Table 1 rows I.1 / I.2; row I.3 is I.2 under
// an all-to-one-queue workload, not a different discipline).
enum class InputQueueing {
  kPrivatePerContext,  // I.1: one queue per (input context, port); no locks
  kProtectedPublic,    // I.2: shared per-port queues guarded by HwMutex
};

// Output-side queue servicing (Table 1 rows O.1 / O.2 / O.3).
enum class OutputServicing {
  kSingleQueueBatching,    // O.1
  kSingleQueueNoBatching,  // O.2
  kMultiQueueIndirection,  // O.3: readiness bit-array + up to 16 queues/port
};

// How the MACs are driven.
enum class PortMode {
  kReal,          // packets arrive from MacPort objects over the IX bus DMA
  kInfiniteFifo,  // §3.5.1: one pre-staged MP recycled per FIFO slot,
                  // emulating infinitely fast ports (used by the benches)
};

// Which classifier runs in protocol_processing.
enum class ClassifierMode {
  kFastPath,   // one-cycle dest hash + route cache (§3.5.1)
  kFlowTable,  // full classifier: validate, hash IP+TCP headers, flow
               // metadata lookup — 56 instructions + 20 B SRAM (§4.5)
};

// Register-instruction decomposition of the two pipeline stages. The
// defaults sum to Table 2's measured counts: input 171 and output 109
// register operations per MP in the I.2 + O.1 configuration.
struct StageCosts {
  // --- input (total 171 with protected queues) ---
  uint32_t in_cs_port_check = 10;  // inside the token critical section
  uint32_t in_cs_dma_issue = 35;   // inside the token critical section
  uint32_t in_addr_calc = 10;      // calculate_mp_addr / buffer bookkeeping
  uint32_t in_fifo_copy = 20;      // IN_FIFO -> registers
  uint32_t in_protocol = 56;       // classify (incl. 1-cycle hash) + minimal forward
  uint32_t in_dram_copy = 20;      // registers -> DRAM issue sequence
  uint32_t in_enqueue = 10;        // descriptor construction + queue bookkeeping
  uint32_t in_mutex_ops = 9;       // CAM acquire/release issue (protected only)
  uint32_t in_loop = 1;

  // --- output (total 109 with a single batched queue) ---
  uint32_t out_cs = 23;           // token critical section: FIFO slot enable order
  uint32_t out_select_queue = 20; // scheduler: pick a non-empty queue
  uint32_t out_dequeue = 16;
  uint32_t out_copy = 35;         // DRAM -> OUT_FIFO issue sequence
  uint32_t out_loop = 15;
  // Unamortized head-pointer check (O.2) and readiness-indirection scan
  // (O.3) instructions; calibrated to Table 1 rows O.2 (3.41 Mpps) and O.3
  // (3.29 Mpps).
  uint32_t out_head_check_cycles = 8;
  uint32_t out_indirection_cycles = 12;

  // Entries fetched per amortized 16 B SRAM burst in the batching dequeue.
  uint32_t dequeue_burst = 4;
};

struct RouterConfig {
  HwConfig hw = HwConfig::Default();
  StageCosts costs;

  // Pipeline shape: by default 4 MicroEngines run the input loop and 2 the
  // output loop (§3.5.1: "4 MicroEngines (16 contexts) running the input
  // loop and 2 MicroEngines (8 contexts) running the output loop").
  // Overrides for Figure 7 scaling experiments: if >= 0, use exactly this
  // many contexts for the stage (packed onto the minimum number of MEs).
  int input_contexts_override = -1;
  int output_contexts_override = -1;

  InputQueueing input_queueing = InputQueueing::kProtectedPublic;
  OutputServicing output_servicing = OutputServicing::kSingleQueueBatching;
  // Queues per output port (1 unless O.3 / I.1).
  int queues_per_port = 1;
  uint32_t queue_capacity = 1024;

  PortMode port_mode = PortMode::kReal;
  ClassifierMode classifier = ClassifierMode::kFastPath;

  // Port complement; defaults to the board's 8 x 100 Mbps (the two gigabit
  // ports can be added by appending 1e9 entries).
  std::vector<double> port_rates_bps = std::vector<double>(8, 100e6);

  bool enable_strongarm = true;
  bool enable_pentium = true;
  bool sa_use_interrupts = false;  // §3.6: polling won (526 Kpps)

  // §4.1: "We eventually plan to run a proportional share scheduler on the
  // StrongARM... but we currently implement a simple priority scheme that
  // gives packets being passed up to the Pentium precedence." Both are
  // implemented; strict priority (the paper's prototype) is the default.
  bool sa_proportional_share = false;
  double sa_pentium_share = 3.0;  // tickets for the Pentium-bound queue
  double sa_local_share = 1.0;    // tickets for local forwarders

  // The router's own address: the source of the ICMP errors the StrongARM
  // originates (time-exceeded for TTL expiry, destination-unreachable for
  // routing failures), and the address it answers pings on.
  uint32_t router_ip = 0x0aff0001;  // 10.255.0.1

  // VRP admission budget for MicroEngine extensions.
  VrpBudget budget = VrpBudget::Prototype();
  // Synthetic per-MP VRP blocks (Figures 9/10): each block is 10 register
  // instructions and/or one 4-byte SRAM read.
  uint32_t vrp_blocks_reg = 0;
  uint32_t vrp_blocks_sram = 0;

  // InfiniteFifo mode: fraction of synthetic packets diverted to the
  // StrongARM as exceptional (robustness experiment #2), and fraction bound
  // for the Pentium (robustness experiment #1).
  double synthetic_exceptional_fraction = 0.0;
  double synthetic_pentium_fraction = 0.0;
  // InfiniteFifo destination pattern: uniform over ports, or everything to
  // port 1's queue (Table 1 row I.3, Figure 10 maximal contention).
  bool synthetic_single_dst = false;

  // Stage-isolation modes for Table 1 / Figure 7 ("results for input and
  // output are presented separately"):
  //  * magic_drain: a zero-cost simulator process empties the port queues,
  //    so the measured rate is the input process's enqueue rate.
  //  * output_fake_data: the output loop is "fooled into believing data was
  //    always available" (§3.5.1) — an eternal template descriptor is
  //    served whenever the real queues are empty.
  bool magic_drain = false;
  bool output_fake_data = false;

  // §3.2.2 ablation: the paper rotates the token so a context always hands
  // it to a context on *another* MicroEngine. Setting this false rotates
  // within each engine first (the naive order) — measurably slower.
  bool token_ring_interleaved = true;
  // §3.2.3 ablation: replace the circular buffer ring with the per-port
  // stack pool the paper describes but chose not to build. Removes the
  // buffer-lap loss hazard at the cost of an extra SRAM push/pop per packet.
  bool use_stack_buffer_pool = false;

  // Deterministic fault injection (docs/fault_injection.md). The default
  // plan injects nothing and builds no injector.
  FaultPlan fault_plan;

  // §3.7 ablation: an early design had the ports DMA packets directly
  // to/from DRAM, bypassing the FIFOs — four memory accesses per byte of a
  // minimum packet (port->DRAM, DRAM->registers, registers->DRAM,
  // DRAM->port), which saturated DRAM at 2.69 Mpps.
  bool dram_direct_path = false;

  int num_ports() const { return static_cast<int>(port_rates_bps.size()); }
  int input_contexts() const {
    return input_contexts_override >= 0 ? input_contexts_override : 4 * hw.contexts_per_me;
  }
  int output_contexts() const {
    return output_contexts_override >= 0 ? output_contexts_override : 2 * hw.contexts_per_me;
  }
};

}  // namespace npr

#endif  // SRC_CORE_ROUTER_CONFIG_H_

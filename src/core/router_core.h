// Shared wiring handed to the pipeline stages, the bridge, and the host by
// the Router facade. Plain pointers: the Router owns everything and
// outlives all users.

#ifndef SRC_CORE_ROUTER_CORE_H_
#define SRC_CORE_ROUTER_CORE_H_

#include <optional>
#include <vector>

#include "src/core/buffer_allocator.h"
#include "src/core/flow_table.h"
#include "src/core/forwarder.h"
#include "src/core/health_hooks.h"
#include "src/core/packet_queue.h"
#include "src/core/queue_plan.h"
#include "src/core/router_config.h"
#include "src/core/router_stats.h"
#include "src/ixp/ixp1200.h"
#include "src/net/mac_port.h"
#include "src/route/route_cache.h"
#include "src/route/route_table.h"
#include "src/vrp/interpreter.h"
#include "src/vrp/istore_layout.h"

namespace npr {

class StrongArmBridge;
class PentiumHost;
class FaultInjector;
class Observer;
class OverloadGovernor;
class UpgradeOrchestrator;

struct RouterCore {
  // The steps every processor level shares (buffer ownership, frame load,
  // native forwarder runs) are inline functions below the struct.

  const RouterConfig* config = nullptr;
  EventQueue* engine = nullptr;
  Ixp1200* chip = nullptr;
  HostSystem* host = nullptr;

  CircularBufferAllocator* buffers = nullptr;
  // Non-null when RouterConfig::use_stack_buffer_pool is set.
  StackBufferPool* stack_pool = nullptr;
  QueuePlan* queues = nullptr;
  RouteTable* route_table = nullptr;
  RouteCache* route_cache = nullptr;
  FlowTable* flow_table = nullptr;
  IStoreLayout* istore = nullptr;
  VrpInterpreter* vrp = nullptr;

  // Exception path: packets for StrongARM-local service and packets bound
  // for the Pentium (§3.6, §4.5).
  PacketQueue* sa_local_queue = nullptr;
  PacketQueue* sa_pentium_queue = nullptr;

  ForwarderRegistry* sa_forwarders = nullptr;
  ForwarderRegistry* pe_forwarders = nullptr;
  // Handles exceptional packets carrying IP options on the StrongARM
  // (typically the full-IP forwarder). Optional; without it the bridge
  // forwards option packets with the minimal transform.
  NativeForwarder* sa_exception_handler = nullptr;

  std::vector<MacPort*> ports;
  RouterStats* stats = nullptr;

  // Router-owned frame-buffer pool for control-plane packet materialization
  // (the StrongARM bridge pulling frames out of DRAM). Data-path RX/TX
  // frames live in the per-MacPort pools instead.
  PacketPool* pool = nullptr;

  StrongArmBridge* bridge = nullptr;
  PentiumHost* pentium = nullptr;

  // Non-null when the config carries a fault plan; stage loops poll it for
  // context crashes.
  FaultInjector* fault = nullptr;

  // Non-null when an Observer is attached (Router::SetObserver); stage
  // loops emit span records through it.
  Observer* obs = nullptr;

  // Non-null when a HealthMonitor is attached (Router::set_health_hooks);
  // the data path notifies it of traps and queries degraded-mode policy.
  HealthHooks* health = nullptr;

  // Non-null when an OverloadGovernor is attached (Router::SetGovernor);
  // the bridge polls it for host-bound shedding policy (the MacPorts hold
  // their own RxGovernorHooks pointer to the same object).
  OverloadGovernor* governor = nullptr;

  // Non-null when an UpgradeOrchestrator is attached (Router::SetUpgrade);
  // the input stage hands it pristine/post-run MP views around every VRP
  // run so the shadow comparator sees exactly what the active image saw.
  UpgradeOrchestrator* upgrade = nullptr;
};

// A packet buffer and the ring generation at its allocation (0 under the
// stack pool, whose lifetimes are explicit).
struct BufferGrant {
  uint32_t addr = 0;
  uint64_t generation = 0;
};

// Allocates a packet buffer from whichever allocator owns buffers. Nullopt
// only when the stack pool (§3.2.3 ablation) is exhausted; the circular
// ring never fails.
inline std::optional<BufferGrant> AllocateBuffer(RouterCore& core, const BufferMeta& meta) {
  if (core.stack_pool != nullptr) {
    const std::optional<uint32_t> addr = core.stack_pool->Allocate(meta);
    if (!addr) {
      return std::nullopt;
    }
    return BufferGrant{*addr, 0};
  }
  const uint32_t addr = core.buffers->Allocate(meta);
  return BufferGrant{addr, core.buffers->MetaFor(addr).generation};
}

// True while `desc`'s buffer still holds its packet: the circular ring
// laps buffers, the stack pool never does.
inline bool BufferStillValid(const RouterCore& core, const PacketDescriptor& desc) {
  return core.stack_pool != nullptr || core.buffers->StillValid(desc.buffer_addr, desc.generation);
}

// Sidecar metadata for a buffer under either allocator.
inline const BufferMeta& BufferMetaFor(const RouterCore& core, uint32_t addr) {
  return core.stack_pool != nullptr ? core.stack_pool->MetaFor(addr)
                                    : core.buffers->MetaFor(addr);
}

// Releases a buffer if the stack pool owns allocation (no-op for the
// circular ring, whose buffers expire by being lapped).
inline void ReleaseBuffer(RouterCore& core, uint32_t addr) {
  if (core.stack_pool != nullptr) {
    core.stack_pool->Free(addr);
  }
}

// Pulls a buffered frame out of DRAM into a buffer from `pool` (a one-off
// heap buffer when the pool is null or capped out).
inline Packet MaterializePacket(RouterCore& core, PacketPool* pool, const PacketDescriptor& desc) {
  const uint32_t n = desc.frame_bytes;
  FrameBuf* buf = pool != nullptr ? pool->TryAcquire(n) : nullptr;
  if (buf == nullptr) {
    buf = PacketPool::AcquireHeap(n);
  }
  core.chip->memory().dram_store().Read(desc.buffer_addr, std::span<uint8_t>(buf->data(), n));
  return Packet::Adopt(buf);
}

// Runs a StrongARM or Pentium forwarder on `packet` against `flow`'s state
// window (no flow: no state, as for the exception handler). `*out_port` is
// the destination in and out. Returns the verdict; `*cycles` receives what
// the hosting processor must be charged.
inline NativeAction RunNative(RouterCore& core, NativeForwarder& fw, const FlowMeta* flow,
                              Packet& packet, uint8_t* out_port, uint32_t* cycles) {
  NativeContext nc;
  nc.packet = &packet;
  nc.sram = &core.chip->memory().sram_store();
  if (flow != nullptr) {
    nc.state_addr = flow->state_addr;
    nc.state_bytes = flow->state_bytes;
  }
  nc.routes = core.route_table;
  nc.now = core.engine->now();
  nc.out_port = *out_port;
  const NativeAction action = fw.Process(nc);
  *cycles = fw.cycles_per_packet() + nc.extra_cycles;
  *out_port = nc.out_port;
  return action;
}

}  // namespace npr

#endif  // SRC_CORE_ROUTER_CORE_H_

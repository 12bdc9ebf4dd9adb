// Shared wiring handed to the pipeline stages, the bridge, and the host by
// the Router facade. Plain pointers: the Router owns everything and
// outlives all users.

#ifndef SRC_CORE_ROUTER_CORE_H_
#define SRC_CORE_ROUTER_CORE_H_

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
  // Returns the packet's sidecar metadata regardless of allocator flavor,
  // and releases a buffer when the stack pool (§3.2.3 ablation) owns it.
  // Declared below the struct; see inline definitions at the bottom.

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

}  // namespace npr

#endif  // SRC_CORE_ROUTER_CORE_H_

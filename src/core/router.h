// The router facade: assembles the simulated hardware, the fixed
// infrastructure (Sections 2-3), and the extensibility machinery
// (Section 4), and exposes the paper's install/remove/getdata/setdata
// interface plus experiment plumbing.

#ifndef SRC_CORE_ROUTER_H_
#define SRC_CORE_ROUTER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/admission.h"
#include "src/core/classifier.h"
#include "src/core/input_stage.h"
#include "src/core/mem_map.h"
#include "src/core/output_stage.h"
#include "src/core/pentium_host.h"
#include "src/core/router_config.h"
#include "src/core/router_core.h"
#include "src/core/strongarm_bridge.h"

namespace npr {

class FaultInjector;
class Observer;
class UpgradeOrchestrator;

// A request through the §4.5 interface:
//   fid = install(key, fwdr, size, where)
struct InstallRequest {
  FlowKey key;                    // 4-tuple, or FlowKey::All()
  Where where = Where::kMicroEngine;
  // where == ME: the VRP program to verify and load (copied).
  const VrpProgram* program = nullptr;
  // where == SA/PE: index into that processor's jump table (§4.5: the
  // StrongARM boots with a fixed set; install binds one of them).
  int native_index = -1;
  // Flow-state bytes; defaults to the program's .state / the native
  // forwarder's declared requirement.
  uint32_t state_bytes = 0;
  // Pentium admission parameters (§4.6).
  double expected_pps = 0;
  double expected_cpp = 0;
  // FNV-1a over the assembled image words (VrpImageChecksum), computed by
  // the sender before the request crosses the control channel. 0 skips the
  // check; any other value must match the program bytes that arrived.
  uint64_t image_checksum = 0;
};

// Why an install was refused, machine-readably (error carries the prose).
enum class InstallReject : uint8_t {
  kNone,
  kBadRequest,         // missing program / unknown jump-table index
  kChecksumMismatch,   // image bytes do not match image_checksum
  kAdmission,          // verifier or budget refusal
  kIstoreFull,         // no extension slots left
};

struct InstallOutcome {
  bool ok = false;
  InstallReject reject = InstallReject::kNone;
  std::string error;
  uint32_t fid = 0;
};

class Router {
 public:
  explicit Router(RouterConfig config);
  // Multi-node configurations (the paper's §6 "four Pentium/IXP pairs")
  // share one simulation clock: pass the common event queue.
  Router(RouterConfig config, EventQueue& shared_engine);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Starts the pipeline stages, the StrongARM, and the Pentium. Routes and
  // forwarders may be installed before or after.
  void Start();

  // --- the paper's control interface (§4.5) ---
  InstallOutcome Install(const InstallRequest& request);
  bool Remove(uint32_t fid);
  // Flow-state access for control forwarders.
  std::vector<uint8_t> GetData(uint32_t fid);
  bool SetData(uint32_t fid, std::span<const uint8_t> data);

  // --- configuration helpers ---
  bool AddRoute(const std::string& cidr, uint8_t out_port);
  // Installs the StrongARM's exception handler for IP-option packets
  // (usually a FullIpForwarder). The router takes ownership.
  void SetExceptionHandler(std::unique_ptr<NativeForwarder> handler);
  // Pre-fills the route cache for destinations 10.<port>.0.<1..spread>.
  void WarmRouteCache(int spread = 64);

  // --- simulation control ---
  void RunFor(SimTime dt) { engine_.RunFor(dt); }
  void RunForMs(double ms) { engine_.RunFor(static_cast<SimTime>(ms * kPsPerMs)); }
  // Discards warmup statistics and opens a measurement window.
  void StartMeasurement();
  // Forwarding rate in Mpps over the measurement window.
  double ForwardingRateMpps() const;

  // --- access ---
  EventQueue& engine() { return engine_; }
  const RouterConfig& config() const { return config_; }
  Ixp1200& chip() { return chip_; }
  HostSystem& host() { return host_; }
  RouterStats& stats() { return stats_; }
  RouteTable& route_table() { return route_table_; }
  RouteCache& route_cache() { return route_cache_; }
  FlowTable& flow_table() { return flow_table_; }
  IStoreLayout& istore() { return istore_; }
  VrpInterpreter& vrp() { return vrp_; }
  AdmissionControl& admission() { return admission_; }
  // The SRAM allocator (flow-state regions live here) and the bytes the
  // fixed infrastructure claimed at construction. RouterInvariants
  // reconciles outstanding() - sram_infra_bytes() against the flow table.
  Arena& sram_arena() { return sram_arena_; }
  uint32_t sram_infra_bytes() const { return sram_infra_bytes_; }
  ForwarderRegistry& sa_forwarders() { return sa_forwarders_; }
  ForwarderRegistry& pe_forwarders() { return pe_forwarders_; }
  MacPort& port(int i) { return *ports_[static_cast<size_t>(i)]; }
  int num_ports() const { return static_cast<int>(ports_.size()); }
  // Router-owned pool backing bridge-side packet materialization; the
  // per-port RX/TX pools live on the MacPorts (port(i).pool()).
  PacketPool& packet_pool() { return packet_pool_; }
  StrongArmBridge& bridge() { return *bridge_; }
  PentiumHost& pentium_host() { return *pentium_; }
  InputStage& input_stage() { return *input_; }
  OutputStage& output_stage() { return *output_; }
  QueuePlan& queues() { return *queues_; }
  CircularBufferAllocator& buffers() { return buffers_; }
  PacketQueue& sa_local_queue() { return *sa_local_queue_; }
  PacketQueue& sa_pentium_queue() { return *sa_pentium_queue_; }
  // Null unless the config carries a non-empty fault plan.
  FaultInjector* fault_injector() { return fault_.get(); }
  bool started() const { return started_; }

  // Attaches (or detaches, with nullptr) the health-monitor hook points the
  // data path consults: trap notification and degraded-mode shedding. The
  // hooks object must outlive the attachment.
  void set_health_hooks(HealthHooks* hooks) { core_.health = hooks; }

  // Attaches (or detaches, with nullptr) the observability layer: span
  // tracers on ports/queues/token rings and the cycle profiler on every
  // MicroEngine. The observer must outlive the attachment. No-op when the
  // build carries NPR_OBS=OFF (the hook sites compile away).
  void SetObserver(Observer* obs);
  Observer* observer() { return core_.obs; }

  // Attaches (or detaches, with nullptr) the overload governor: RX
  // admission hooks on every MacPort plus the bridge's host-bound shedding
  // policy. The governor must outlive the attachment; null (the default)
  // admits everything.
  void SetGovernor(OverloadGovernor* governor);
  OverloadGovernor* governor() { return core_.governor; }

  // Attaches (or detaches, with nullptr) the in-service upgrade
  // orchestrator: the input stage hands it every VRP run on the upgraded
  // handle for shadow comparison. The orchestrator must outlive the
  // attachment; normally set by UpgradeOrchestrator's own constructor.
  void SetUpgrade(UpgradeOrchestrator* upgrade) { core_.upgrade = upgrade; }
  UpgradeOrchestrator* upgrade() { return core_.upgrade; }

 private:
  RouterConfig config_;
  std::unique_ptr<EventQueue> owned_engine_;  // null when the engine is shared
  EventQueue& engine_;
  // Declared before the processors so it outlives their coroutine frames:
  // a StrongARM or Pentium loop torn down mid-packet still holds a frame
  // from this pool, and its destructor returns the frame here.
  PacketPool packet_pool_;
  Ixp1200 chip_;
  HostSystem host_;
  RouterStats stats_;

  Arena sram_arena_;
  Arena scratch_arena_;
  uint32_t sram_infra_bytes_ = 0;  // arena watermark at end of construction
  CircularBufferAllocator buffers_;
  std::unique_ptr<StackBufferPool> stack_pool_;

  RouteTable route_table_;
  RouteCache route_cache_;
  FlowTable flow_table_;
  IStoreLayout istore_;
  VrpInterpreter vrp_;
  ForwarderRegistry sa_forwarders_;
  ForwarderRegistry pe_forwarders_;
  AdmissionControl admission_;

  std::vector<std::unique_ptr<MacPort>> ports_;
  std::unique_ptr<QueuePlan> queues_;
  std::unique_ptr<PacketQueue> sa_local_queue_;
  std::unique_ptr<PacketQueue> sa_pentium_queue_;

  std::unique_ptr<FaultInjector> fault_;

  RouterCore core_;
  Classifier classifier_;
  std::unique_ptr<InputStage> input_;
  std::unique_ptr<OutputStage> output_;
  std::unique_ptr<StrongArmBridge> bridge_;
  std::unique_ptr<PentiumHost> pentium_;
  std::unique_ptr<NativeForwarder> exception_handler_;

  Router(RouterConfig config, EventQueue* shared_engine);

  void DrainOnce();

  bool started_ = false;
};

}  // namespace npr

#endif  // SRC_CORE_ROUTER_H_

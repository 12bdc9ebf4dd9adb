#include "src/core/router.h"

#include <cassert>

#include "src/core/overload.h"
#include "src/fault/fault_injector.h"
#include "src/net/traffic_gen.h"
#include "src/obs/observer.h"
#include "src/sim/log.h"

namespace npr {
namespace {

// SRAM layout: queues and flow state share the 2 MB SRAM; Scratch holds
// head/tail pairs and readiness words within its 4 KB.
constexpr uint32_t kSramArenaBase = 0;
constexpr uint32_t kScratchArenaBase = 0;

}  // namespace

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      engine_(std::make_unique<EventQueue>()),
      chip_(*engine_, config_.hw),
      host_(*engine_, config_.hw),
      sram_arena_(kSramArenaBase, static_cast<uint32_t>(chip_.memory().sram_store().size())),
      scratch_arena_(kScratchArenaBase,
                     static_cast<uint32_t>(chip_.memory().scratch_store().size())),
      buffers_(/*dram_base=*/0, config_.hw.buffer_bytes, config_.hw.num_buffers),
      istore_(config_.hw),
      vrp_(chip_.memory().sram_store(), chip_.hash()),
      admission_(config_, istore_),
      classifier_(config_.classifier, route_table_, route_cache_, flow_table_, chip_.hash()) {
  // MAC ports exist in both modes (routes target them); they only source
  // traffic in kReal mode.
  ports_.reserve(static_cast<size_t>(config_.num_ports()));
  for (int p = 0; p < config_.num_ports(); ++p) {
    ports_.push_back(std::make_unique<MacPort>(*engine_, static_cast<uint8_t>(p),
                                               config_.port_rates_bps[static_cast<size_t>(p)]));
  }

  queues_ = std::make_unique<QueuePlan>(*engine_, chip_.memory(), config_, sram_arena_,
                                        scratch_arena_, config_.input_contexts(),
                                        std::max(1, config_.output_contexts()));

  // Exception queues (§3.6): local service and Pentium-bound.
  sa_local_queue_ = std::make_unique<PacketQueue>(
      chip_.memory().sram_store(), chip_.memory().scratch_store(),
      sram_arena_.Alloc(config_.queue_capacity * 4), scratch_arena_.Alloc(8),
      config_.queue_capacity, /*id=*/-1, /*dram_base=*/0, config_.hw.buffer_bytes);
  sa_pentium_queue_ = std::make_unique<PacketQueue>(
      chip_.memory().sram_store(), chip_.memory().scratch_store(),
      sram_arena_.Alloc(config_.queue_capacity * 4), scratch_arena_.Alloc(8),
      config_.queue_capacity, /*id=*/-2, /*dram_base=*/0, config_.hw.buffer_bytes);

  if (config_.use_stack_buffer_pool) {
    stack_pool_ = std::make_unique<StackBufferPool>(/*dram_base=*/0, config_.hw.buffer_bytes,
                                                    config_.hw.num_buffers);
  }

  core_.config = &config_;
  core_.engine = engine_.get();
  core_.chip = &chip_;
  core_.host = &host_;
  core_.buffers = &buffers_;
  core_.stack_pool = stack_pool_.get();
  core_.queues = queues_.get();
  core_.route_table = &route_table_;
  core_.route_cache = &route_cache_;
  core_.flow_table = &flow_table_;
  core_.istore = &istore_;
  core_.vrp = &vrp_;
  core_.sa_local_queue = sa_local_queue_.get();
  core_.sa_pentium_queue = sa_pentium_queue_.get();
  core_.sa_forwarders = &sa_forwarders_;
  core_.pe_forwarders = &pe_forwarders_;
  for (auto& port : ports_) {
    core_.ports.push_back(port.get());
  }
  core_.stats = &stats_;
  core_.pool = &packet_pool_;

  input_ = std::make_unique<InputStage>(core_, classifier_);
  output_ = std::make_unique<OutputStage>(core_);
  bridge_ = std::make_unique<StrongArmBridge>(core_, classifier_);
  pentium_ = std::make_unique<PentiumHost>(core_, *bridge_);
  core_.bridge = bridge_.get();
  core_.pentium = pentium_.get();

  if (config_.fault_plan.Any()) {
    fault_ = std::make_unique<FaultInjector>(config_.fault_plan, *engine_);
    core_.fault = fault_.get();
    MemorySystem& m = chip_.memory();
    m.dram().set_fault_injector(fault_.get());
    m.sram().set_fault_injector(fault_.get());
    m.scratch().set_fault_injector(fault_.get());
    // Bit flips only on the packet-payload store: descriptor words and flow
    // state have their own fault class (descriptor corruption) with a
    // detection path.
    m.dram_store().set_fault_injector(fault_.get());
    for (auto& port : ports_) {
      port->set_fault_injector(fault_.get());
    }
    for (const auto& q : queues_->all_queues()) {
      q->set_fault_injector(fault_.get());
    }
    sa_local_queue_->set_fault_injector(fault_.get());
    sa_pentium_queue_->set_fault_injector(fault_.get());
    input_->token_ring().set_fault_injector(fault_.get());
    output_->token_ring().set_fault_injector(fault_.get());
  }

  // Everything allocated so far is fixed infrastructure (queues, readiness
  // words); anything above this watermark is flow state and must reconcile
  // against the flow table (RouterInvariants memory-bounds ledger).
  sram_infra_bytes_ = sram_arena_.outstanding();
}

void Router::SetObserver(Observer* obs) {
  core_.obs = obs;
  CycleProfiler* profiler = obs != nullptr ? &obs->profiler() : nullptr;
  for (int i = 0; i < chip_.num_mes(); ++i) {
    chip_.me(i).set_profiler(profiler);
  }
  for (auto& port : ports_) {
    port->set_tracer(obs);
  }
  for (const auto& q : queues_->all_queues()) {
    q->set_tracer(obs);
  }
  sa_local_queue_->set_tracer(obs);
  sa_pentium_queue_->set_tracer(obs);
  input_->token_ring().set_tracer(obs);
  output_->token_ring().set_tracer(obs);
}

void Router::SetGovernor(OverloadGovernor* governor) {
  core_.governor = governor;
  for (auto& port : ports_) {
    port->set_governor(governor);
  }
}

Router::~Router() {
  // Drop pending events before the coroutine frames die so nothing can
  // resume into freed state.
  engine_->Clear();
}

void Router::Start() {
  assert(!started_ && "Router::Start called twice");
  started_ = true;
  if (config_.output_contexts() > 0) {
    output_->Start();
  }
  if (config_.input_contexts() > 0) {
    input_->Start();
  }
  if (config_.enable_strongarm) {
    bridge_->Start();
  }
  if (config_.enable_pentium) {
    pentium_->Start();
  }
  if (config_.magic_drain) {
    DrainOnce();
  }
}

void Router::DrainOnce() {
  // Zero-cost simulated drain (Table 1 / Figure 7 input-only isolation):
  // completed packets are counted as forwarded the instant they are
  // enqueued.
  for (const auto& q : queues_->all_queues()) {
    while (auto d = q->Pop()) {
      stats_.forwarded += 1;
      stats_.forward_rate.Record(engine_->now());
    }
  }
  while (sa_local_queue_->Pop()) {
  }
  while (sa_pentium_queue_->Pop()) {
  }
  engine_->ScheduleIn(kPsPerUs, [this] { DrainOnce(); });
}

InstallOutcome Router::Install(const InstallRequest& request) {
  InstallOutcome outcome;

  FlowMeta meta;
  meta.key = request.key;
  meta.where = request.where;

  const bool general = request.key.all;
  uint32_t state_bytes = request.state_bytes;
  AdmissionResult admit;
  NativeForwarder* fw = nullptr;
  if (request.where == Where::kMicroEngine) {
    if (request.program == nullptr) {
      outcome.reject = InstallReject::kBadRequest;
      outcome.error = "ME install requires a VRP program";
      return outcome;
    }
    if (request.image_checksum != 0 &&
        VrpImageChecksum(*request.program) != request.image_checksum) {
      // The image was damaged between the sender and here (e.g. in transit
      // on the control channel): refuse before any resource is touched,
      // instead of discovering it at the first runtime trap.
      outcome.reject = InstallReject::kChecksumMismatch;
      outcome.error = "image checksum mismatch";
      stats_.upgrade_checksum_rejects += 1;
      return outcome;
    }
    if (state_bytes == 0) {
      state_bytes = request.program->flow_state_bytes;
    }
    admit = admission_.CheckMicroEngine(*request.program, general);
  } else {
    // StrongARM and Pentium: bind one entry of that processor's jump table.
    const bool sa = request.where == Where::kStrongArm;
    fw = (sa ? sa_forwarders_ : pe_forwarders_).Get(request.native_index);
    if (fw == nullptr) {
      outcome.reject = InstallReject::kBadRequest;
      outcome.error =
          sa ? "unknown StrongARM jump-table index" : "unknown Pentium jump-table index";
      return outcome;
    }
    if (sa) {
      admit = admission_.CheckStrongArm(*fw, request.expected_pps);
    } else {
      meta.reserved_pps = request.expected_pps;
      meta.reserved_cpp = request.expected_cpp > 0 ? request.expected_cpp
                                                   : static_cast<double>(fw->cycles_per_packet());
      admit = admission_.CheckPentium(meta.reserved_pps, meta.reserved_cpp);
    }
    if (state_bytes == 0) {
      state_bytes = fw->state_bytes();
    }
    meta.native_index = request.native_index;
  }
  if (!admit.admitted) {
    outcome.reject = InstallReject::kAdmission;
    outcome.error = admit.reason;
    return outcome;
  }

  // Allocate and zero the flow state (§4.5).
  meta.state_bytes = state_bytes;
  meta.state_addr = state_bytes > 0 ? sram_arena_.Alloc(state_bytes) : 0;
  if (state_bytes > 0) {
    chip_.memory().sram_store().Zero(meta.state_addr, state_bytes);
  }
  if (request.where == Where::kMicroEngine) {
    auto handle = general ? istore_.InstallGeneral(*request.program, meta.state_addr)
                          : istore_.InstallPerFlow(*request.program);
    if (!handle) {
      if (state_bytes > 0) {
        sram_arena_.Free(meta.state_addr, state_bytes);
      }
      outcome.reject = InstallReject::kIstoreFull;
      outcome.error = "ISTORE allocation failed";
      return outcome;
    }
    admission_.CommitMicroEngine(*handle, admit.worst_case, general);
    meta.me_program_id = *handle;
  }

  const uint32_t fid = flow_table_.Insert(meta);
  switch (request.where) {
    case Where::kMicroEngine:
      break;  // committed above under the istore handle
    case Where::kStrongArm:
      admission_.CommitStrongArm(
          fid, request.expected_pps * static_cast<double>(fw->cycles_per_packet()));
      break;
    case Where::kPentium:
      admission_.CommitPentium(fid, meta.reserved_pps, meta.reserved_cpp);
      // Tickets proportional to the reserved cycle rate.
      pentium_->scheduler().ConfigureFlow(
          fid, std::max(1.0, meta.reserved_pps * meta.reserved_cpp / 1e4));
      break;
  }

  outcome.ok = true;
  outcome.fid = fid;
  return outcome;
}

bool Router::Remove(uint32_t fid) {
  const FlowMeta* meta = flow_table_.Get(fid);
  if (meta == nullptr) {
    return false;
  }
  switch (meta->where) {
    case Where::kMicroEngine:
      istore_.Remove(meta->me_program_id);
      admission_.ReleaseMicroEngine(meta->me_program_id);
      break;
    case Where::kStrongArm:
      admission_.ReleaseStrongArm(fid);
      break;
    case Where::kPentium:
      admission_.ReleasePentium(fid);
      pentium_->scheduler().RemoveFlow(fid);
      break;
  }
  // Release the flow-state binding along with the forwarder: install
  // allocated it, so remove must return it, or repeated install/remove
  // cycles bleed the arena dry (and the memory-bounds ledger catches it).
  if (meta->state_bytes > 0) {
    sram_arena_.Free(meta->state_addr, meta->state_bytes);
  }
  return flow_table_.Remove(fid);
}

std::vector<uint8_t> Router::GetData(uint32_t fid) {
  const FlowMeta* meta = flow_table_.Get(fid);
  if (meta == nullptr || meta->state_bytes == 0) {
    return {};
  }
  std::vector<uint8_t> data(meta->state_bytes);
  chip_.memory().sram_store().Read(meta->state_addr, data);
  return data;
}

bool Router::SetData(uint32_t fid, std::span<const uint8_t> data) {
  const FlowMeta* meta = flow_table_.Get(fid);
  if (meta == nullptr || data.size() > meta->state_bytes) {
    return false;
  }
  chip_.memory().sram_store().Write(meta->state_addr, data);
  return true;
}

void Router::SetExceptionHandler(std::unique_ptr<NativeForwarder> handler) {
  exception_handler_ = std::move(handler);
  core_.sa_exception_handler = exception_handler_.get();
}

bool Router::AddRoute(const std::string& cidr, uint8_t out_port) {
  return route_table_.AddRoute(cidr, out_port);
}

void Router::WarmRouteCache(int spread) {
  for (int p = 0; p < config_.num_ports(); ++p) {
    for (int low = 1; low <= spread; ++low) {
      const uint32_t dst = DstIpForPort(static_cast<uint8_t>(p), static_cast<uint16_t>(low));
      auto result = route_table_.Lookup(dst);
      if (result.entry) {
        route_cache_.Insert(dst, *result.entry, route_table_.epoch());
      }
    }
  }
}

void Router::StartMeasurement() {
  stats_.StartWindow(engine_->now());
  chip_.memory().ResetStats();
  chip_.strongarm().ResetStats();
  host_.pentium().ResetStats();
}

double Router::ForwardingRateMpps() const { return stats_.forward_rate.RatePerSec() / 1e6; }

}  // namespace npr

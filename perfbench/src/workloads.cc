#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <thread>

#include "src/cluster/cluster_control.h"
#include "src/cluster/cluster_router.h"
#include "src/core/overload.h"
#include "src/core/router.h"
#include "src/fault/fault_injector.h"
#include "src/fault/router_invariants.h"
#include "src/forwarders/native.h"
#include "src/forwarders/vrp_programs.h"
#include "src/health/health_monitor.h"
#include "src/net/ipv4.h"
#include "src/net/tcp.h"
#include "src/net/traffic_gen.h"
#include "src/sim/random.h"

namespace perfbench {
namespace {

using npr::kPsPerMs;
using npr::kPsPerUs;
using npr::Router;
using npr::SimTime;

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

uint64_t SubSeed(uint64_t seed, int stream) { return npr::FaultPlan::DeriveNodeSeed(seed, stream); }

// Drops a router counted in a named counter, MAC level included (the port
// counters, not their RouterStats mirrors, so nothing is counted twice).
uint64_t NamedDrops(Router& r) {
  const npr::RouterStats& s = r.stats();
  uint64_t drops = s.dropped_invalid + s.dropped_by_vrp + s.dropped_queue_full +
                   s.lost_overwritten + s.dropped_no_buffer + s.sa_lapped + s.sa_absorbed +
                   s.pe_absorbed + s.pkts_shed_degraded + s.gov_shed_pe + s.gov_shed_sa +
                   r.sa_local_queue().corrupt_drops() + r.sa_pentium_queue().corrupt_drops();
  for (const auto& q : r.queues().all_queues()) {
    drops += q->corrupt_drops();
  }
  for (int p = 0; p < r.num_ports(); ++p) {
    const npr::MacPort& port = r.port(p);
    drops += port.rx_crc_dropped() + port.rx_dropped() + port.gov_red_dropped() +
             port.gov_policed() + port.gov_quenched();
  }
  return drops;
}

// Adds one router's public counters. `finished` and `offered` are left to
// the caller, which knows which ports face the outside.
void AddRouter(Router& r, Counters* c) {
  const npr::RouterStats& s = r.stats();
  c->input_pkts += s.input.packets;
  c->exceptional += s.exceptional;
  c->to_pentium += s.to_pentium;
  npr::MemorySystem& mem = r.chip().memory();
  c->dram_ops += mem.dram().reads() + mem.dram().writes();
  c->sram_ops += mem.sram().reads() + mem.sram().writes();
  c->scratch_ops += mem.scratch().reads() + mem.scratch().writes();
  c->dram_bytes += mem.dram().bytes_moved();
  for (int i = 0; i < r.chip().num_mes(); ++i) {
    c->me_busy_cycles += r.chip().me(i).busy_cycles();
  }
  c->num_mes += static_cast<uint64_t>(r.chip().num_mes());
  c->sa_busy_cycles += r.chip().strongarm().busy_cycles();
  c->num_sas += 1;
  c->cache_hits += r.route_cache().hits();
  c->cache_misses += r.route_cache().misses();
  c->route_epochs += r.route_table().epoch();
  c->vrp_traps += r.vrp().traps();
  c->queue_drops += s.dropped_queue_full;
  c->gov_drops += s.gov_red_dropped + s.gov_policed + s.gov_quenched + s.gov_shed_pe +
                  s.gov_shed_sa;
  c->pool_high_water += r.packet_pool().high_water();
  c->pool_slabs += r.packet_pool().slabs_allocated();
  for (int p = 0; p < r.num_ports(); ++p) {
    const npr::MacPort& port = r.port(p);
    c->rx_drops += port.rx_crc_dropped() + port.rx_dropped() + port.gov_red_dropped() +
                   port.gov_policed() + port.gov_quenched();
    c->pool_high_water += port.pool().high_water();
    c->pool_slabs += port.pool().slabs_allocated();
  }
  if (npr::FaultInjector* fi = r.fault_injector()) {
    for (size_t k = 0; k < npr::kFaultKindCount; ++k) {
      c->faults_injected += fi->injected(static_cast<npr::FaultKind>(k));
    }
  }
}

// Everything a host-only change must leave bit-identical: per-port
// transmissions, every named drop counter, the event count and the clock.
std::string RouterDigest(Router& r) {
  const npr::RouterStats& s = r.stats();
  std::string d = "tx=";
  uint64_t crc = 0, rxd = 0, red = 0, pol = 0, qch = 0, corrupt = 0;
  for (int p = 0; p < r.num_ports(); ++p) {
    const npr::MacPort& port = r.port(p);
    d += Format("%s%" PRIu64, p == 0 ? "" : "/", port.tx_frames());
    crc += port.rx_crc_dropped();
    rxd += port.rx_dropped();
    red += port.gov_red_dropped();
    pol += port.gov_policed();
    qch += port.gov_quenched();
  }
  for (const auto& q : r.queues().all_queues()) {
    corrupt += q->corrupt_drops();
  }
  corrupt += r.sa_local_queue().corrupt_drops() + r.sa_pentium_queue().corrupt_drops();
  d += Format(
      " fwd=%" PRIu64 " invalid=%" PRIu64 " vrp_drop=%" PRIu64 " queue_full=%" PRIu64
      " lapped=%" PRIu64 " no_buffer=%" PRIu64 " sa_lapped=%" PRIu64 " sa_absorbed=%" PRIu64
      " pe_absorbed=%" PRIu64 " shed_degraded=%" PRIu64,
      s.forwarded, s.dropped_invalid, s.dropped_by_vrp, s.dropped_queue_full,
      s.lost_overwritten, s.dropped_no_buffer, s.sa_lapped, s.sa_absorbed, s.pe_absorbed,
      s.pkts_shed_degraded);
  d += Format(" gov_shed_pe=%" PRIu64 " gov_shed_sa=%" PRIu64 " rx_crc=%" PRIu64
              " rx_drop=%" PRIu64 " gov_red=%" PRIu64 " gov_police=%" PRIu64
              " gov_quench=%" PRIu64 " desc_corrupt=%" PRIu64 " events=%" PRIu64
              " now_ps=%" PRId64,
              s.gov_shed_pe, s.gov_shed_sa, crc, rxd, red, pol, qch, corrupt,
              r.engine().events_run(), static_cast<int64_t>(r.engine().now()));
  return d;
}

void AddDefaultRoutes(Router& r) {
  for (int p = 0; p < r.num_ports(); ++p) {
    r.AddRoute("10." + std::to_string(p) + ".0.0/16", static_cast<uint8_t>(p));
  }
}

void SetMemory(Router& r, LayerInputs* out) {
  npr::MemorySystem& mem = r.chip().memory();
  out->dram = mem.dram().config();
  out->sram = mem.sram().config();
  out->scratch = mem.scratch().config();
  out->has_memory = true;
}

// The 64-byte head of a frame built to `spec`.
std::vector<uint8_t> MpOf(const npr::PacketSpec& spec) {
  npr::Packet p = npr::BuildPacket(spec);
  const auto bytes = p.bytes();
  return std::vector<uint8_t>(bytes.begin(), bytes.begin() + std::min<size_t>(64, bytes.size()));
}

// ---------------------------------------------------------------------------
// One standalone router: the shared phases. Subclasses fill in configuration,
// routes, installs and traffic.

class RouterCase : public Case {
 public:
  RouterCase(const char* name, SimTime warm, SimTime timed, SimTime slice)
      : name_(name), warm_(warm), timed_(timed), slice_(slice) {}

  const char* name() const override { return name_; }

  void Warm() override { router_->RunFor(warm_); }
  int slices() const override { return static_cast<int>(timed_ / slice_); }
  void Slice() override { router_->RunFor(slice_); }
  // Real ports run on to quiescence: every offered packet transmitted or
  // dropped by name, bounded by kMaxDrain.
  void Drain() override {
    for (SimTime t = 0; !synthetic() && (Unaccounted() != 0 || !Settled()) && t < kMaxDrain;
         t += kDrainStep) {
      router_->RunFor(kDrainStep);
    }
  }

  Counters Read() override {
    Counters c;
    c.now = router_->engine().now();
    c.events = router_->engine().events_run();
    AddRouter(*router_, &c);
    c.finished = router_->stats().forwarded + NamedDrops(*router_);
    c.offered = synthetic() ? c.finished : Offered();
    AddAttachments(&c);
    return c;
  }

  std::string Check() override {
    const npr::InvariantReport inv = npr::RouterInvariants::CheckAll(*router_);
    if (!inv.ok()) {
      return inv.ToString();
    }
    if (!synthetic() && !inv.conservation_checked) {
      return "packet conservation was not checked";
    }
    if (Unaccounted() != 0) {
      return Format("%" PRIu64 " offered packets unaccounted", Unaccounted());
    }
    return CheckWorkload();
  }

  std::string Digest() override { return RouterDigest(*router_); }

  uint64_t Unaccounted() override {
    if (synthetic()) {
      return 0;
    }
    const uint64_t in = Offered() + router_->stats().icmp_originated;
    const uint64_t out = router_->stats().forwarded + NamedDrops(*router_);
    return in > out ? in - out : 0;
  }

 protected:
  // Synthetic MPs (the §3.5.1 infinitely fast ports): nothing is offered
  // from outside, so every completed packet counts as offered.
  bool synthetic() const {
    return router_->config().port_mode == npr::PortMode::kInfiniteFifo;
  }
  uint64_t Offered() {
    uint64_t offered = 0;
    for (int p = 0; p < router_->num_ports(); ++p) {
      offered += router_->port(p).rx_offered();
    }
    return offered;
  }
  virtual void AddAttachments(Counters* c) { (void)c; }
  // Whether workload-specific traffic (retransmissions) is still pending.
  virtual bool Settled() { return true; }
  virtual std::string CheckWorkload() { return ""; }

  void StartGen(int port, const npr::TrafficSpec& spec, uint64_t seed, SimTime until) {
    gens_.push_back(std::make_unique<npr::TrafficGen>(router_->engine(), router_->port(port),
                                                      spec, seed));
    gens_.back()->Start(until);
  }

  static constexpr SimTime kDrainStep = 250 * kPsPerUs;
  static constexpr SimTime kMaxDrain = 50 * kPsPerMs;

  const char* name_;
  const SimTime warm_;
  const SimTime timed_;
  const SimTime slice_;
  std::unique_ptr<Router> router_;
  std::vector<std::unique_ptr<npr::TrafficGen>> gens_;
};

// ---------------------------------------------------------------------------
// table1: the eight §3.5.1 configurations of bench/table1_queueing.

// The EXPERIMENTS.md Table 1 measurements; a row outside +-2% of its value
// fails the repetition.
constexpr double kTable1BandPct = 2.0;

struct Table1Row {
  const char* name;
  double expect_mpps;
  npr::RouterConfig config;
  bool line_rate;
};

npr::RouterConfig InfiniteFifo() {
  npr::RouterConfig cfg;
  cfg.port_mode = npr::PortMode::kInfiniteFifo;
  cfg.enable_pentium = false;
  cfg.enable_strongarm = false;
  return cfg;
}

std::vector<Table1Row> Table1Rows() {
  std::vector<Table1Row> rows;
  const auto input_only = [](npr::InputQueueing iq, bool single_dst) {
    npr::RouterConfig cfg = InfiniteFifo();
    cfg.input_queueing = iq;
    cfg.output_contexts_override = 0;
    cfg.magic_drain = true;
    cfg.synthetic_single_dst = single_dst;
    return cfg;
  };
  const auto output_only = [](npr::OutputServicing os) {
    npr::RouterConfig cfg = InfiniteFifo();
    cfg.input_contexts_override = 0;
    cfg.output_fake_data = true;
    cfg.output_servicing = os;
    return cfg;
  };
  rows.push_back({"I.1", 3.738, input_only(npr::InputQueueing::kPrivatePerContext, false), false});
  rows.push_back({"I.2", 3.419, input_only(npr::InputQueueing::kProtectedPublic, false), false});
  rows.push_back({"I.3", 1.629, input_only(npr::InputQueueing::kProtectedPublic, true), false});
  rows.push_back({"O.1", 3.475, output_only(npr::OutputServicing::kSingleQueueBatching), false});
  rows.push_back({"O.2", 3.195, output_only(npr::OutputServicing::kSingleQueueNoBatching), false});
  rows.push_back({"O.3", 3.096, output_only(npr::OutputServicing::kMultiQueueIndirection), false});
  npr::RouterConfig line;
  line.enable_pentium = false;
  rows.push_back({"line_rate", 1.128, line, true});
  rows.push_back({"I.2+O.1", 3.423, InfiniteFifo(), false});
  return rows;
}

class Table1Case : public RouterCase {
 public:
  Table1Case(Table1Row row, uint64_t seed)
      : RouterCase(row.name, (row.line_rate ? 4 : 2) * kPsPerMs, 10 * kPsPerMs, 100 * kPsPerUs),
        row_(std::move(row)),
        seed_(seed) {}

  void Construct() override { router_ = std::make_unique<Router>(row_.config); }
  void Routes() override {
    AddDefaultRoutes(*router_);
    router_->WarmRouteCache(row_.line_rate ? 64 : 8);
  }
  void Install() override {}
  void Start() override {
    router_->Start();
    if (row_.line_rate) {
      for (int p = 0; p < 8; ++p) {
        npr::TrafficSpec spec;
        spec.rate_pps = 141'000;
        StartGen(p, spec, SubSeed(seed_, p), warm_ + timed_);
      }
    }
  }

  void Warm() override {
    RouterCase::Warm();
    forwarded_at_start_ = router_->stats().forwarded;
  }
  void Slice() override {
    RouterCase::Slice();
    if (++slices_done_ == slices()) {
      forwarded_at_end_ = router_->stats().forwarded;
    }
  }

  void Inputs(LayerInputs* out) override {
    if (!row_.line_rate) {
      return;
    }
    out->routes = router_->route_table().Dump();
    npr::Rng rng(SubSeed(seed_, 100));
    for (int i = 0; i < 4096; ++i) {
      out->dsts.push_back(npr::DstIpForPort(static_cast<uint8_t>(rng.Uniform(8)),
                                            static_cast<uint16_t>(1 + rng.Uniform(64))));
    }
    SetMemory(*router_, out);
  }

 protected:
  std::string CheckWorkload() override {
    const double mpps = static_cast<double>(forwarded_at_end_ - forwarded_at_start_) /
                        (static_cast<double>(timed_) / 1e12) / 1e6;
    if (std::abs(mpps - row_.expect_mpps) > row_.expect_mpps * kTable1BandPct / 100.0) {
      return Format("%s: %.4f Mpps outside %.3f +-%.0f%%", row_.name, mpps, row_.expect_mpps,
                    kTable1BandPct);
    }
    if (NamedDrops(*router_) != 0) {
      return Format("%s: %" PRIu64 " packets lost", row_.name, NamedDrops(*router_));
    }
    return "";
  }

 private:
  Table1Row row_;
  uint64_t seed_;
  int slices_done_ = 0;
  uint64_t forwarded_at_start_ = 0;  // the timed phase's forwarding rate
  uint64_t forwarded_at_end_ = 0;
};

// ---------------------------------------------------------------------------
// service_mix: the §4 extensible services on one line-rate router.

constexpr int kServicePrefixes = 10'000;
constexpr int kServiceFlowsPerPort = 512;

// A flow the benchmark injects on its own so its 4-tuple is known and a
// per-flow forwarder can be bound to it.
struct PinnedFlow {
  int in_port;
  uint8_t out_port;
  double pps;
  uint16_t src_port;
};
// [0] carries the per-flow DSCP tagger, [1] and [2] the Pentium service.
constexpr PinnedFlow kPinnedFlows[] = {
    {0, 3, 6'000, 4000}, {1, 5, 4'000, 4001}, {2, 6, 4'000, 4002}};

npr::FlowKey KeyOf(const PinnedFlow& f) {
  return npr::FlowKey::Tuple(npr::SrcIpForPort(static_cast<uint8_t>(f.in_port), 1),
                             npr::DstIpForPort(f.out_port, 1), f.src_port, 5000);
}

class ServiceMixCase : public RouterCase {
 public:
  explicit ServiceMixCase(uint64_t seed)
      : RouterCase("service_mix", 2 * kPsPerMs, 8 * kPsPerMs, 100 * kPsPerUs),
        seed_(seed) {}

  void Construct() override {
    npr::RouterConfig cfg;
    cfg.classifier = npr::ClassifierMode::kFlowTable;
    router_ = std::make_unique<Router>(cfg);
  }

  // The eight /16s plus ~10k longer prefixes inside them, each pointing at
  // its /16's port, so churning them moves no packet to another port.
  void Routes() override {
    AddDefaultRoutes(*router_);
    npr::Rng rng(SubSeed(seed_, 200));
    for (int i = 0; i < kServicePrefixes; ++i) {
      const uint8_t port = static_cast<uint8_t>(rng.Uniform(8));
      const int len = 17 + static_cast<int>(rng.Uniform(12));
      const uint32_t host = static_cast<uint32_t>(rng.Next()) & 0xffffu;
      const uint32_t addr = (0x0a000000u | uint32_t{port} << 16 | host) & ~((1u << (32 - len)) - 1);
      const std::string cidr = Format("%u.%u.%u.%u/%d", addr >> 24, (addr >> 16) & 0xff,
                                      (addr >> 8) & 0xff, addr & 0xff, len);
      router_->AddRoute(cidr, port);
      if (i % 128 == 0) {
        churn_.push_back({*npr::Prefix::Parse(cidr), cidr, port});
      }
    }
    router_->WarmRouteCache(64);
  }

  void Install() override {
    router_->SetExceptionHandler(std::make_unique<npr::FullIpForwarder>());
    const npr::VrpProgram syn = npr::BuildSynMonitor();
    const npr::VrpProgram tagger = npr::BuildDscpTagger();
    npr::InstallRequest req;
    req.key = npr::FlowKey::All();
    req.where = npr::Where::kMicroEngine;
    req.program = &syn;
    Expect(router_->Install(req), "syn monitor");
    req.key = KeyOf(kPinnedFlows[0]);
    req.program = &tagger;
    Expect(router_->Install(req), "dscp tagger");
    const int svc = router_->pe_forwarders().Register(
        std::make_unique<npr::FixedCostForwarder>("pe-service", 1000));
    for (const PinnedFlow& f : {kPinnedFlows[1], kPinnedFlows[2]}) {
      npr::InstallRequest pe;
      pe.key = KeyOf(f);
      pe.where = npr::Where::kPentium;
      pe.native_index = svc;
      pe.expected_pps = f.pps;
      pe.expected_cpp = 1000;
      Expect(router_->Install(pe), "pentium service");
    }
  }

  void Start() override {
    router_->Start();
    const SimTime until = warm_ + timed_;
    // 64 B on ports 0-3, 576 B on 4-5, 1518 B on 6-7, each at 95% of the
    // 100 Mbps line in bits, less what the pinned flows on that port carry.
    const struct {
      size_t bytes;
      double pps;
    } sizes[] = {{64, 141'000}, {576, 19'900}, {1518, 7'700}};
    for (int p = 0; p < 8; ++p) {
      const auto& size = sizes[p < 4 ? 0 : (p < 6 ? 1 : 2)];
      npr::TrafficSpec spec;
      spec.frame_bytes = size.bytes;
      spec.rate_pps = size.pps - PinnedPps(p);
      spec.pattern = npr::TrafficSpec::DstPattern::kFlows;
      spec.num_flows = kServiceFlowsPerPort;
      spec.syn_fraction = 0.02;
      spec.exceptional_fraction = 0.05;
      StartGen(p, spec, SubSeed(seed_, p), until);
    }
    int stream = 10;
    for (const PinnedFlow& f : kPinnedFlows) {
      npr::TrafficSpec spec;
      spec.rate_pps = f.pps;
      spec.pattern = npr::TrafficSpec::DstPattern::kSinglePort;
      spec.single_dst_port = f.out_port;
      spec.src_port = f.src_port;
      spec.dst_port = 5000;
      StartGen(f.in_port, spec, SubSeed(seed_, stream++), until);
    }
    churn_until_ = until;
    router_->engine().ScheduleRaw(router_->engine().now() + kPsPerMs, &ServiceMixCase::Churn,
                                  this);
  }

  void Inputs(LayerInputs* out) override {
    out->routes = router_->route_table().Dump();
    // The workload's destinations: Zipf-popular flows, each to a uniformly
    // chosen port, low 16 bits = flow index + 1 (TrafficGen's flow plan).
    npr::Rng rng(SubSeed(seed_, 300));
    npr::ZipfDistribution zipf(kServiceFlowsPerPort, 1.0);
    std::vector<uint8_t> flow_port(kServiceFlowsPerPort * 8);
    for (uint8_t& p : flow_port) {
      p = static_cast<uint8_t>(rng.Uniform(8));
    }
    for (int i = 0; i < 4096; ++i) {
      const size_t gen = rng.Uniform(8);
      const size_t f = zipf.Sample(rng);
      out->dsts.push_back(npr::DstIpForPort(flow_port[gen * kServiceFlowsPerPort + f],
                                            static_cast<uint16_t>(f + 1)));
    }
    out->programs = {npr::BuildSynMonitor(), npr::BuildDscpTagger()};
    for (int i = 0; i < 256; ++i) {
      npr::PacketSpec spec;
      spec.protocol = npr::kIpProtoTcp;
      spec.src_ip = npr::SrcIpForPort(static_cast<uint8_t>(i % 8), static_cast<uint16_t>(i + 1));
      spec.dst_ip = out->dsts[static_cast<size_t>(i)];
      spec.tcp_flags = rng.Chance(0.02) ? npr::kTcpFlagSyn : 0x10;
      out->mps.push_back(MpOf(spec));
    }
    SetMemory(*router_, out);
  }

 protected:
  std::string CheckWorkload() override {
    if (!install_error_.empty()) {
      return install_error_;
    }
    if (router_->stats().pentium_processed == 0) {
      return "no packet reached the Pentium service";
    }
    if (router_->stats().sa_local_processed == 0) {
      return "no packet took the StrongARM path";
    }
    return "";
  }

 private:
  struct ChurnRoute {
    npr::Prefix prefix;
    std::string cidr;
    uint8_t port;
  };

  static double PinnedPps(int port) {
    double pps = 0;
    for (const PinnedFlow& f : kPinnedFlows) {
      pps += f.in_port == port ? f.pps : 0;
    }
    return pps;
  }

  void Expect(const npr::InstallOutcome& outcome, const char* what) {
    if (!outcome.ok && install_error_.empty()) {
      install_error_ = Format("%s install refused: %s", what, outcome.error.c_str());
    }
  }

  // One route withdrawn or re-added every simulated millisecond.
  static void Churn(void* ctx) {
    auto* self = static_cast<ServiceMixCase*>(ctx);
    Router& r = *self->router_;
    if (r.engine().now() > self->churn_until_ || self->churn_.empty()) {
      return;
    }
    const size_t i = self->churn_step_ / 2 % self->churn_.size();
    const ChurnRoute& route = self->churn_[i];
    if (self->churn_step_ % 2 == 0) {
      r.route_table().RemoveRoute(route.prefix);
    } else {
      r.AddRoute(route.cidr, route.port);
    }
    ++self->churn_step_;
    r.engine().ScheduleRaw(r.engine().now() + kPsPerMs, &ServiceMixCase::Churn, self);
  }

  uint64_t seed_;
  std::vector<ChurnRoute> churn_;
  size_t churn_step_ = 0;
  SimTime churn_until_ = 0;
  std::string install_error_;
};

// ---------------------------------------------------------------------------
// overload_chaos: bench/robustness experiment 4 under ambient faults, with
// the governor and health monitor attached, run to quiescence.

constexpr int kControlFrames = 40;
constexpr int kControlAttempts = 8;
constexpr uint8_t kControlPort = 1;

// Pentium-side sink for the control frames: consumes them and records
// which ones arrived (the frame index rides in the source address).
class ControlSink : public npr::NativeForwarder {
 public:
  const std::string& name() const override { return name_; }
  uint32_t cycles_per_packet() const override { return 150; }
  npr::NativeAction Process(npr::NativeContext& ctx) override {
    auto ip = npr::Ipv4Header::Parse(ctx.packet->l3());
    if (ip && ip->protocol == npr::kIpProtoOspfLite) {
      const uint32_t index = ip->src & 0xff;
      if (index < kControlFrames) {
        seen_[index] = true;
      }
    }
    return npr::NativeAction::kConsume;
  }
  bool seen(int i) const { return seen_[i]; }

 private:
  std::string name_ = "control-sink";
  bool seen_[kControlFrames] = {};
};

class OverloadChaosCase : public RouterCase {
 public:
  explicit OverloadChaosCase(uint64_t seed)
      : RouterCase("overload_chaos", 500 * kPsPerUs, 4500 * kPsPerUs, 100 * kPsPerUs),
        seed_(seed) {}

  void Construct() override {
    npr::RouterConfig cfg;
    cfg.port_rates_bps = std::vector<double>(8, 1e9);
    cfg.fault_plan = npr::FaultPlan::OverloadChaos(SubSeed(seed_, 400));
    router_ = std::make_unique<Router>(cfg);
  }
  void Routes() override {
    AddDefaultRoutes(*router_);
    router_->WarmRouteCache(32);
  }
  void Install() override {
    auto sink = std::make_unique<ControlSink>();
    sink_ = sink.get();
    npr::InstallRequest req;
    req.key = npr::FlowKey::All();
    req.where = npr::Where::kPentium;
    req.native_index = router_->pe_forwarders().Register(std::move(sink));
    req.expected_pps = 10'000;
    req.expected_cpp = 150;
    const npr::InstallOutcome outcome = router_->Install(req);
    if (!outcome.ok) {
      install_error_ = "control sink install refused: " + outcome.error;
    }
  }
  void Start() override {
    router_->Start();
    governor_ = std::make_unique<npr::OverloadGovernor>(*router_);
    health_ = std::make_unique<npr::HealthMonitor>(*router_);
    const SimTime until = warm_ + timed_;
    // Conforming sources beside the flood.
    for (const auto& [in, out] : {std::pair{0, 5}, std::pair{6, 7}}) {
      npr::TrafficSpec spec;
      spec.rate_pps = 100'000;
      spec.pattern = npr::TrafficSpec::DstPattern::kSinglePort;
      spec.single_dst_port = static_cast<uint8_t>(out);
      StartGen(in, spec, SubSeed(seed_, in), until);
    }
    // Min-size floods above gigabit line rate on three ports, one victim.
    for (int p : {1, 2, 3}) {
      npr::TrafficSpec spec;
      spec.rate_pps = 1.6e6;
      spec.adversarial = npr::TrafficSpec::Adversarial::kMinSizeFlood;
      spec.flood_factor = 1.0;
      spec.single_dst_port = 4;
      spec.flood_sources = 64;
      StartGen(p, spec, SubSeed(seed_, p), until);
    }
    for (int i = 0; i < kControlFrames; ++i) {
      router_->engine().Schedule(static_cast<SimTime>(i) * 100 * kPsPerUs,
                                 [this, i] { SendControl(i, 1); });
    }
  }

  void Inputs(LayerInputs* out) override {
    out->routes = router_->route_table().Dump();
    // Three floods at the victim for every conforming packet.
    npr::Rng rng(SubSeed(seed_, 700));
    for (int i = 0; i < 4096; ++i) {
      const uint8_t port = i % 4 == 3 ? (i % 8 == 3 ? 5 : 7) : 4;
      out->dsts.push_back(npr::DstIpForPort(port, static_cast<uint16_t>(1 + rng.Uniform(64))));
    }
    SetMemory(*router_, out);
  }

 protected:
  void AddAttachments(Counters* c) override {
    if (governor_ != nullptr) {  // attached in Start()
      c->gov_escalations += governor_->escalations();
      c->recoveries += health_->events().size();
    }
  }
  bool Settled() override { return FirstUnseenControl() < 0; }
  std::string CheckWorkload() override {
    if (!install_error_.empty()) {
      return install_error_;
    }
    if (FirstUnseenControl() >= 0) {
      return Format("control frame %d never reached the Pentium", FirstUnseenControl());
    }
    return "";
  }

 private:
  int FirstUnseenControl() const {
    for (int i = 0; i < kControlFrames; ++i) {
      if (!sink_->seen(i)) {
        return i;
      }
    }
    return -1;
  }

  // A control frame through the flooded port. Like an OSPF speaker, the
  // source resends a frame the wire lost to an injected fault.
  void SendControl(int index, int attempt) {
    if (sink_->seen(index)) {
      return;
    }
    npr::PacketSpec spec;
    spec.protocol = npr::kIpProtoOspfLite;
    spec.eth_src = npr::PortMac(kControlPort);
    spec.eth_dst = npr::PortMac(0xfe);
    spec.dst_ip = 0x0aff0001;
    spec.src_ip = npr::SrcIpForPort(kControlPort, static_cast<uint16_t>(index));
    npr::Packet p = npr::BuildPacket(spec);
    p.set_id(0x00c00000u | static_cast<uint32_t>(index) << 4 | static_cast<uint32_t>(attempt));
    p.set_arrival_port(kControlPort);
    router_->port(kControlPort).InjectFromWire(std::move(p));
    if (attempt < kControlAttempts) {
      router_->engine().ScheduleIn(300 * kPsPerUs,
                                   [this, index, attempt] { SendControl(index, attempt + 1); });
    }
  }

  uint64_t seed_;
  ControlSink* sink_ = nullptr;
  std::unique_ptr<npr::OverloadGovernor> governor_;
  std::unique_ptr<npr::HealthMonitor> health_;
  std::string install_error_;
};

// ---------------------------------------------------------------------------
// cluster8: the sharded 8-node ClusterRouter with its control plane.

constexpr int kClusterNodes = 8;
constexpr SimTime kFabricLatency = 2 * kPsPerUs;

// One traffic source per node, on that node's shard: 141 Kpps of 64 B frames
// per external port, half to other nodes. Frames are built in the ingress
// port's pool, as TrafficGen builds them.
struct NodePump {
  npr::ClusterRouter* cluster = nullptr;
  int node = 0;
  npr::Rng rng{0};
  SimTime gap = 0;
  SimTime stop_at = 0;
  int next_port = 0;
  uint32_t sent = 0;

  static void Tick(void* ctx) {
    auto* self = static_cast<NodePump*>(ctx);
    self->Emit();
  }

  void Emit() {
    npr::EventQueue& eng = cluster->node_engine(node);
    if (eng.now() >= stop_at) {
      return;
    }
    const int ext = cluster->external_ports_per_node();
    const int in_port = next_port;
    next_port = (next_port + 1) % ext;
    int g;
    if (rng.Chance(0.5)) {
      int other;
      do {
        other = static_cast<int>(rng.Uniform(static_cast<uint64_t>(cluster->num_nodes())));
      } while (other == node);
      g = other * ext + static_cast<int>(rng.Uniform(static_cast<uint64_t>(ext)));
    } else {
      const int out = (in_port + 1 + static_cast<int>(rng.Uniform(static_cast<uint64_t>(ext - 1)))) % ext;
      g = node * ext + out;
    }
    npr::PacketSpec spec;
    spec.dst_ip = cluster->ExternalDstIp(g, static_cast<uint16_t>(1 + rng.Uniform(16)));
    spec.src_ip = npr::SrcIpForPort(static_cast<uint8_t>(node), static_cast<uint16_t>(in_port + 1));
    spec.eth_src = npr::PortMac(static_cast<uint8_t>(in_port));
    spec.eth_dst = npr::PortMac(0xfe);
    npr::MacPort& port = cluster->node(node).port(in_port);
    const uint32_t bytes = static_cast<uint32_t>(npr::ClampedFrameBytes(spec));
    if (npr::FrameBuf* buf = port.pool().TryAcquire(bytes)) {
      std::memset(buf->data(), 0, bytes);
      npr::BuildFrameInto(spec, std::span<uint8_t>(buf->data(), bytes));
      npr::Packet packet = npr::Packet::Adopt(buf);
      packet.set_id(static_cast<uint32_t>(in_port) << 24 | (++sent & 0xffffff));
      packet.set_arrival_port(static_cast<uint8_t>(in_port));
      packet.set_created(eng.now());
      port.InjectFromWire(std::move(packet));
    }
    eng.ScheduleRaw(eng.now() + gap, &NodePump::Tick, this);
  }
};

class Cluster8Case : public Case {
 public:
  Cluster8Case(uint64_t seed, int threads) : seed_(seed), threads_(threads) {}

  const char* name() const override { return "cluster8"; }

  void Construct() override {
    npr::ClusterConfig cfg;
    cfg.nodes = kClusterNodes;
    cfg.fabric_latency_ps = kFabricLatency;
    cfg.threads = threads_;
    cluster_ = std::make_unique<npr::ClusterRouter>(cfg);
  }
  // The control plane discovers and installs every node's routes.
  void Routes() override {
    control_ = std::make_unique<npr::ClusterControlPlane>(*cluster_);
    control_->Start();
  }
  void Install() override {}
  void Start() override { cluster_->Start(); }

  void Warm() override {
    cluster_->RunFor(kConverge);
    cluster_->WarmRouteCaches();
    const int ext = cluster_->external_ports_per_node();
    const SimTime gap = static_cast<SimTime>(1e12 / (141'000.0 * ext));
    const SimTime stop_at = cluster_->now() + kTraffic + kTimed;
    for (int k = 0; k < kClusterNodes; ++k) {
      auto pump = std::make_unique<NodePump>();
      pump->cluster = cluster_.get();
      pump->node = k;
      pump->rng = npr::Rng(SubSeed(seed_, 500 + k));
      pump->gap = gap;
      pump->stop_at = stop_at;
      cluster_->node_engine(k).ScheduleRaw(cluster_->now() + 1, &NodePump::Tick, pump.get());
      pumps_.push_back(std::move(pump));
    }
    cluster_->RunFor(kTraffic);
  }
  int slices() const override { return static_cast<int>(kTimed / kFabricLatency); }
  // One conservative window per call.
  void Slice() override { cluster_->RunFor(kFabricLatency); }
  void Drain() override { cluster_->RunFor(kDrain); }

  Counters Read() override {
    Counters c;
    c.now = cluster_->now();
    c.events = cluster_->TotalEventsRun();
    c.hub_events = cluster_->engine().events_run();
    const int ext = cluster_->external_ports_per_node();
    for (int k = 0; k < kClusterNodes; ++k) {
      Router& r = cluster_->node(k);
      c.node_events[static_cast<size_t>(k)] = cluster_->node_engine(k).events_run();
      AddRouter(r, &c);
      c.finished += NamedDrops(r);
      for (int p = 0; p < ext; ++p) {
        c.offered += r.port(p).rx_offered();
        c.finished += r.port(p).tx_frames();
      }
    }
    for (int plane = 0; plane < cluster_->num_planes(); ++plane) {
      const npr::SwitchFabric& fabric = cluster_->fabric(plane);
      c.fabric_frames += fabric.forwarded();
      c.finished += fabric.gate_dropped() + fabric.unknown_destination();
    }
    return c;
  }

  std::string Check() override {
    const npr::InvariantReport inv = npr::RouterInvariants::CheckCluster(*cluster_);
    if (!inv.ok()) {
      return inv.ToString();
    }
    if (Unaccounted() != 0) {
      return Format("%" PRIu64 " offered packets unaccounted", Unaccounted());
    }
    return "";
  }

  std::string Digest() override {
    std::string d;
    for (int k = 0; k < kClusterNodes; ++k) {
      d += Format("node%d{", k) + RouterDigest(cluster_->node(k)) + "} ";
    }
    for (int plane = 0; plane < cluster_->num_planes(); ++plane) {
      const npr::SwitchFabric& fabric = cluster_->fabric(plane);
      d += Format("fabric%d{fwd=%" PRIu64 " gate_drop=%" PRIu64 " unknown=%" PRIu64 "} ", plane,
                  fabric.forwarded(), fabric.gate_dropped(), fabric.unknown_destination());
    }
    d += Format("events=%" PRIu64 " hub_events=%" PRIu64 " now_ps=%" PRId64,
                cluster_->TotalEventsRun(), cluster_->engine().events_run(),
                static_cast<int64_t>(cluster_->now()));
    return d;
  }

  uint64_t Unaccounted() override {
    const Counters c = Read();
    uint64_t icmp = 0;
    for (int k = 0; k < kClusterNodes; ++k) {
      icmp += cluster_->node(k).stats().icmp_originated;
    }
    return c.offered + icmp > c.finished ? c.offered + icmp - c.finished : 0;
  }

  void Inputs(LayerInputs* out) override {
    out->routes = cluster_->node(0).route_table().Dump();
    npr::Rng rng(SubSeed(seed_, 600));
    const int ext = cluster_->external_ports_per_node();
    for (int i = 0; i < 4096; ++i) {
      const int g = static_cast<int>(rng.Uniform(static_cast<uint64_t>(kClusterNodes * ext)));
      out->dsts.push_back(cluster_->ExternalDstIp(g, static_cast<uint16_t>(1 + rng.Uniform(16))));
    }
    SetMemory(cluster_->node(0), out);
  }

 private:
  // Hello/LSA convergence before any traffic, then a traffic warm-up.
  static constexpr SimTime kConverge = 1 * kPsPerMs;
  static constexpr SimTime kTraffic = 500 * kPsPerUs;
  static constexpr SimTime kTimed = 2 * kPsPerMs;
  static constexpr SimTime kDrain = 500 * kPsPerUs;

  uint64_t seed_;
  int threads_;
  // Destroyed bottom-up: the control plane, then the cluster (joining its
  // shard threads), then the pumps its queues still point at.
  std::vector<std::unique_ptr<NodePump>> pumps_;
  std::unique_ptr<npr::ClusterRouter> cluster_;
  std::unique_ptr<npr::ClusterControlPlane> control_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"table1", "service_mix", "cluster8",
                                                 "overload_chaos"};
  return names;
}

int CheckThreads(const std::string& workload) {
  if (workload != "cluster8") {
    return 1;
  }
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(nproc, 1, 4);
}

std::vector<std::unique_ptr<Case>> MakeCases(const std::string& workload, uint64_t seed,
                                             int threads) {
  std::vector<std::unique_ptr<Case>> cases;
  if (workload == "table1") {
    for (Table1Row& row : Table1Rows()) {
      cases.push_back(std::make_unique<Table1Case>(std::move(row), seed));
    }
  } else if (workload == "service_mix") {
    cases.push_back(std::make_unique<ServiceMixCase>(seed));
  } else if (workload == "cluster8") {
    cases.push_back(std::make_unique<Cluster8Case>(seed, threads));
  } else if (workload == "overload_chaos") {
    cases.push_back(std::make_unique<OverloadChaosCase>(seed));
  }
  return cases;
}

}  // namespace perfbench

// Observability layer: per-packet span tracing, the cycle-accounting
// profiler, and the fault-triggered flight recorder.
//
// Four end-to-end properties and component unit tests:
//   1. golden trace — the full span stream of the Table 1 line-rate config
//      at a fixed seed is bit-identical across runs and matches the golden
//      committed under tests/data/ (regenerate with NPR_REGEN_GOLDEN=1);
//   2. reconciliation — for randomized traffic/fault seeds, folding the
//      span stream reproduces RouterStats exactly, the in-flight tracker
//      balances against the conservation invariant, and the profiler's
//      cycle totals equal the MicroEngines' own accounting;
//   3. flight recorder — an injected vrp_trap dumps the faulted packet's
//      chain up to the failure point; a lost token dumps too, and the
//      health monitor's recovery span lands at the recorded MTTR;
//   4. neutrality — the isolated Table 1 stages and the Figure 10
//      maximal-contention run execute the same events and reach the same
//      counters with and without an attached Observer.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/router.h"
#include "src/fault/fault_injector.h"
#include "src/fault/router_invariants.h"
#include "src/forwarders/native.h"
#include "src/forwarders/vrp_programs.h"
#include "src/health/health_monitor.h"
#include "src/net/icmp.h"
#include "src/net/traffic_gen.h"
#include "src/obs/observer.h"
#include "src/vrp/assembler.h"

namespace npr {
namespace {

std::unique_ptr<Router> MakeRouter(RouterConfig cfg = RouterConfig{}) {
  auto router = std::make_unique<Router>(std::move(cfg));
  for (int p = 0; p < router->num_ports(); ++p) {
    router->AddRoute("10." + std::to_string(p) + ".0.0/16", static_cast<uint8_t>(p));
  }
  router->WarmRouteCache(32);
  return router;
}

void DriveTraffic(Router& router, std::vector<std::unique_ptr<TrafficGen>>* gens,
                  double traffic_ms, int ports = 4, uint64_t rate_pps = 120'000,
                  uint64_t seed_base = 500) {
  for (int p = 0; p < ports; ++p) {
    TrafficSpec spec;
    spec.rate_pps = rate_pps;
    spec.dst_spread = 16;
    gens->push_back(std::make_unique<TrafficGen>(router.engine(), router.port(p), spec,
                                                 seed_base + static_cast<uint64_t>(p)));
    gens->back()->Start(static_cast<SimTime>(traffic_ms * kPsPerMs));
  }
}

std::string RenderRecord(const SpanRecord& r) {
  char line[96];
  std::snprintf(line, sizeof(line), "%llu %s u%02x a%u p%u",
                static_cast<unsigned long long>(r.t_ps),
                SpanPointName(static_cast<SpanPoint>(r.point)), r.unit, r.arg, r.packet_id);
  return std::string(line);
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

uint64_t FnvBytes(uint64_t h, std::span<const uint8_t> bytes) {
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t Fnv1a(const std::vector<SpanRecord>& records) {
  return FnvBytes(kFnvBasis,
                  std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(records.data()),
                                           records.size() * sizeof(SpanRecord)));
}

// --- golden per-packet trace (Table 1 line-rate config, fixed seed) ------

constexpr size_t kGoldenHeadLines = 256;

// One deterministic 8x100 Mbps line-rate run with full capture.
std::vector<SpanRecord> CaptureLineRateTrace() {
  RouterConfig cfg;  // real ports, Table 1 in-text configuration
  cfg.enable_pentium = false;
  Router router(std::move(cfg));
  ObserverConfig ocfg;
  ocfg.capture_reserve = 1u << 19;
  Observer obs(router.engine(), ocfg);
  router.SetObserver(&obs);
  for (int p = 0; p < router.num_ports(); ++p) {
    router.AddRoute("10." + std::to_string(p) + ".0.0/16", static_cast<uint8_t>(p));
  }
  router.WarmRouteCache(64);
  router.Start();
  std::vector<std::unique_ptr<TrafficGen>> gens;
  for (int p = 0; p < 8; ++p) {
    TrafficSpec spec;
    spec.rate_pps = 141'000;
    gens.push_back(std::make_unique<TrafficGen>(router.engine(), router.port(p), spec,
                                                static_cast<uint64_t>(p + 1)));
    gens.back()->Start(2 * kPsPerMs);
  }
  router.RunForMs(3.0);
  EXPECT_FALSE(obs.capture_truncated()) << "raise capture_reserve";
  EXPECT_EQ(obs.tracker_overflows(), 0u);
  return obs.capture();
}

TEST(GoldenTraceTest, LineRateSpanStreamIsDeterministicAndMatchesGolden) {
  const std::vector<SpanRecord> first = CaptureLineRateTrace();
  const std::vector<SpanRecord> second = CaptureLineRateTrace();
  ASSERT_GT(first.size(), 10'000u) << "line-rate run produced almost no spans";
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    const std::string a = RenderRecord(first[i]);
    const std::string b = RenderRecord(second[i]);
    ASSERT_EQ(a, b) << "trace diverges at record " << i;
  }

  const std::string path = std::string(TESTS_DATA_DIR) + "/obs_golden_trace.txt";
  char header[128];
  std::snprintf(header, sizeof(header), "records %llu\nfnv1a %016llx\n",
                static_cast<unsigned long long>(first.size()),
                static_cast<unsigned long long>(Fnv1a(first)));
  std::string expected(header);
  for (size_t i = 0; i < std::min(first.size(), kGoldenHeadLines); ++i) {
    expected += RenderRecord(first[i]);
    expected += '\n';
  }

  if (std::getenv("NPR_REGEN_GOLDEN") != nullptr) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << "cannot write " << path;
    std::fwrite(expected.data(), 1, expected.size(), f);
    std::fclose(f);
    GTEST_SKIP() << "regenerated " << path;
  }

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr) << "missing golden " << path
                        << " (regenerate with NPR_REGEN_GOLDEN=1)";
  std::string golden;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    golden.append(buf, n);
  }
  std::fclose(f);
  EXPECT_EQ(golden, expected)
      << "span stream diverged from the committed golden; if the router's "
         "timing changed intentionally, regenerate with NPR_REGEN_GOLDEN=1";
}

// --- golden exception path (StrongARM and Pentium, fixed seeds) ----------

// Pentium control forwarder: consumes OSPF-lite frames, passes the rest.
class ControlConsumer : public NativeForwarder {
 public:
  const std::string& name() const override { return name_; }
  uint32_t cycles_per_packet() const override { return 300; }
  NativeAction Process(NativeContext& ctx) override {
    auto ip = Ipv4Header::Parse(ctx.packet->l3());
    return ip && ip->protocol == kIpProtoOspfLite ? NativeAction::kConsume
                                                  : NativeAction::kForward;
  }

 private:
  std::string name_ = "control-consumer";
};

Packet BuildEchoRequest(uint32_t src, uint32_t dst, uint16_t ident) {
  PacketSpec spec;
  spec.protocol = kIpProtoIcmp;
  spec.src_ip = src;
  spec.dst_ip = dst;
  spec.frame_bytes = 74;
  Packet p = BuildPacket(spec);
  IcmpHeader icmp;
  icmp.type = kIcmpEchoRequest;
  icmp.rest = static_cast<uint32_t>(ident) << 16 | 1;
  icmp.WriteWithChecksum(p.l4());
  return p;
}

struct ExceptionPathRun {
  std::vector<SpanRecord> records;
  uint64_t frames = 0;
  uint64_t frames_fnv = kFnvBasis;  // over (port, frame) pairs
  RouterStats stats;
  uint64_t options_handled = 0;
  uint64_t sa_flow_processed = 0;
};

// Every exception-path service on one router, congested so the StrongARM
// and Pentium re-enqueues meet full queues: IP options through full IP,
// TTL expiry and unroutable destinations answered with ICMP, a ping to the
// router, route-cache misses (a cold cache and an epoch bump), per-flow
// StrongARM and Pentium forwarders, a general StrongARM forwarder, a
// general Pentium forwarder consuming OSPF-lite frames, and per-flow and
// general VRP programs (tagger, except, SYN monitor, port filter).
ExceptionPathRun RunExceptionPath() {
  ExceptionPathRun run;
  RouterConfig cfg;
  cfg.classifier = ClassifierMode::kFlowTable;
  cfg.queue_capacity = 32;
  Router router(std::move(cfg));
  ObserverConfig ocfg;
  ocfg.capture_reserve = 1u << 19;
  Observer obs(router.engine(), ocfg);
  router.SetObserver(&obs);
  for (int p = 0; p < router.num_ports(); ++p) {
    router.AddRoute("10." + std::to_string(p) + ".0.0/16", static_cast<uint8_t>(p));
    router.port(p).SetSink([&run, p](Packet&& pkt) {
      const uint8_t port = static_cast<uint8_t>(p);
      run.frames_fnv = FnvBytes(run.frames_fnv, std::span<const uint8_t>(&port, 1));
      run.frames_fnv = FnvBytes(run.frames_fnv, pkt.bytes());
      ++run.frames;
    });
  }
  router.AddRoute("172.16.0.0/12", 5);  // sources, for ICMP replies
  router.WarmRouteCache(4);
  auto full_ip = std::make_unique<FullIpForwarder>();
  FullIpForwarder* full_ip_ptr = full_ip.get();
  router.SetExceptionHandler(std::move(full_ip));

  // Pinned flows: (in port, out port, source port, protocol).
  struct Pinned {
    int in;
    uint8_t out;
    uint16_t sport;
    uint8_t proto;
  };
  const Pinned tagged{0, 3, 4000, kIpProtoTcp};
  const Pinned pe_fixed{1, 7, 4001, kIpProtoUdp};
  const Pinned excepted{2, 4, 4002, kIpProtoUdp};
  const Pinned sa_flow{3, 6, 4003, kIpProtoUdp};
  const Pinned proxied{4, 4, 4004, kIpProtoTcp};
  auto key_of = [](const Pinned& f) {
    return FlowKey::Tuple(SrcIpForPort(static_cast<uint8_t>(f.in), 1), DstIpForPort(f.out, 1),
                          f.sport, 5000);
  };

  auto sa_svc = std::make_unique<FixedCostForwarder>("sa-svc", 400);
  FixedCostForwarder* sa_svc_ptr = sa_svc.get();
  const int sa_svc_index = router.sa_forwarders().Register(std::move(sa_svc));
  const int sa_null_index = router.sa_forwarders().Register(std::make_unique<NullForwarder>());
  const int pe_fixed_index =
      router.pe_forwarders().Register(std::make_unique<FixedCostForwarder>("pe-svc", 1000));
  const int pe_proxy_index =
      router.pe_forwarders().Register(std::make_unique<TcpProxyForwarder>());
  const int pe_control_index =
      router.pe_forwarders().Register(std::make_unique<ControlConsumer>());

  const VrpProgram tagger = BuildDscpTagger();
  const VrpProgram syn = BuildSynMonitor();
  const VrpProgram filter = BuildPortFilter();
  auto except = Assemble("divert", "except\n");
  EXPECT_TRUE(except.ok);

  auto install = [&router](InstallRequest req) {
    const InstallOutcome outcome = router.Install(req);
    EXPECT_TRUE(outcome.ok) << outcome.error;
    return outcome.fid;
  };
  InstallRequest req;
  req.where = Where::kMicroEngine;
  req.key = key_of(tagged);
  req.program = &tagger;
  const uint32_t tagger_fid = install(req);
  req.key = key_of(excepted);
  req.program = &except.program;
  install(req);
  req.key = FlowKey::All();
  req.program = &syn;
  install(req);
  req.program = &filter;
  const uint32_t filter_fid = install(req);

  req = InstallRequest{};
  req.where = Where::kStrongArm;
  req.key = key_of(sa_flow);
  req.native_index = sa_svc_index;
  req.expected_pps = 3'000;
  install(req);
  req.key = FlowKey::All();
  req.native_index = sa_null_index;
  req.expected_pps = 1'000;
  install(req);

  req = InstallRequest{};
  req.where = Where::kPentium;
  req.key = key_of(pe_fixed);
  req.native_index = pe_fixed_index;
  req.expected_pps = 3'000;
  req.expected_cpp = 1000;
  install(req);
  req.key = key_of(proxied);
  req.native_index = pe_proxy_index;
  req.expected_cpp = 800;
  install(req);
  req.key = FlowKey::All();
  req.native_index = pe_control_index;
  req.expected_pps = 5'000;
  req.expected_cpp = 300;
  install(req);

  const uint32_t dscp_ef = 0xb8;
  router.SetData(tagger_fid, std::span<const uint8_t>(
                                 reinterpret_cast<const uint8_t*>(&dscp_ef), sizeof(dscp_ef)));
  // The port filter drops TCP/UDP destination port 6000: [0] = lo<<16 | hi.
  const uint32_t blocked = 6000u << 16 | 6000u;
  router.SetData(filter_fid, std::span<const uint8_t>(
                                 reinterpret_cast<const uint8_t*>(&blocked), sizeof(blocked)));
  router.Start();

  const SimTime until = static_cast<SimTime>(2.5 * kPsPerMs);
  std::vector<std::unique_ptr<TrafficGen>> gens;
  auto start = [&](int port, const TrafficSpec& spec, uint64_t seed) {
    gens.push_back(std::make_unique<TrafficGen>(router.engine(), router.port(port), spec, seed));
    gens.back()->Start(until);
  };
  {
    TrafficSpec mixed;  // cold-cache misses, IP options, SYNs
    mixed.rate_pps = 90'000;
    mixed.dst_spread = 32;
    mixed.exceptional_fraction = 0.05;
    mixed.syn_fraction = 0.02;
    start(0, mixed, 11);
    TrafficSpec filtered;
    filtered.rate_pps = 10'000;
    filtered.dst_port = 6000;
    start(1, filtered, 12);
    TrafficSpec expiring;
    expiring.rate_pps = 5'000;
    expiring.ttl = 1;
    expiring.pattern = TrafficSpec::DstPattern::kSinglePort;
    expiring.single_dst_port = 3;
    start(2, expiring, 13);
    TrafficSpec control;
    control.rate_pps = 5'000;
    control.protocol = kIpProtoOspfLite;
    start(3, control, 14);
    TrafficSpec large;
    large.rate_pps = 8'000;
    large.frame_bytes = 576;
    large.dst_spread = 16;
    large.exceptional_fraction = 0.1;
    start(5, large, 15);
    TrafficSpec congest;  // two sources into port 4's 100 Mbps
    congest.rate_pps = 100'000;
    congest.pattern = TrafficSpec::DstPattern::kSinglePort;
    congest.single_dst_port = 4;
    start(6, congest, 16);
    start(7, congest, 17);
  }
  int stream = 20;
  for (const Pinned& f : {tagged, pe_fixed, excepted, sa_flow, proxied}) {
    TrafficSpec spec;
    spec.rate_pps = 3'000;
    spec.pattern = TrafficSpec::DstPattern::kSinglePort;
    spec.single_dst_port = f.out;
    spec.src_port = f.sport;
    spec.dst_port = 5000;
    spec.protocol = f.proto;
    spec.frame_bytes = f.proto == kIpProtoTcp ? 200 : 64;
    start(f.in, spec, static_cast<uint64_t>(stream++));
  }

  // One-off frames: pings to the router, unroutable destinations, and
  // record-route options with room for a stamp.
  std::vector<std::pair<int, Packet>> injected;
  for (int i = 0; i < 4; ++i) {
    PacketSpec unroutable;
    unroutable.src_ip = SrcIpForPort(1, static_cast<uint16_t>(9 + i));
    unroutable.dst_ip = Ipv4FromString("192.0.2." + std::to_string(1 + i));
    PacketSpec record_route;
    record_route.src_ip = SrcIpForPort(2, 9);
    record_route.dst_ip = DstIpForPort(static_cast<uint8_t>(i), 2);
    record_route.ip_options = {0x07, 0x07, 0x04, 0, 0, 0, 0};
    injected.emplace_back(0, BuildEchoRequest(SrcIpForPort(0, 9), router.config().router_ip,
                                              static_cast<uint16_t>(40 + i)));
    injected.emplace_back(1, BuildPacket(unroutable));
    injected.emplace_back(2, BuildPacket(record_route));
  }
  for (size_t k = 0; k < injected.size(); ++k) {
    std::pair<int, Packet>* entry = &injected[k];
    entry->second.set_id(0x7f000001u + static_cast<uint32_t>(k));
    const SimTime at = static_cast<SimTime>(300 + 150 * k) * kPsPerUs;
    router.engine().Schedule(at, [&router, entry] {
      router.port(entry->first).InjectFromWire(std::move(entry->second));
    });
  }
  // A route added mid-run bumps the epoch: every cached route misses once.
  router.engine().Schedule(kPsPerMs, [&router] { router.AddRoute("10.6.128.0/17", 6); });

  router.RunForMs(4.0);
  EXPECT_FALSE(obs.capture_truncated()) << "raise capture_reserve";
  run.records = obs.capture();
  run.stats = router.stats();
  run.options_handled = full_ip_ptr->options_handled();
  run.sa_flow_processed = sa_svc_ptr->processed();
  return run;
}

uint64_t RenderedFnv1a(const std::vector<SpanRecord>& records) {
  uint64_t h = kFnvBasis;
  for (const SpanRecord& r : records) {
    const std::string line = RenderRecord(r) + "\n";
    h = FnvBytes(h, std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(line.data()),
                                             line.size()));
  }
  return h;
}

TEST(GoldenTraceTest, ExceptionPathSpansAndFramesArePinned) {
  const ExceptionPathRun run = RunExceptionPath();
  const RouterStats& s = run.stats;

  // The run exercises what it claims to pin.
  EXPECT_GT(run.options_handled, 0u) << "no option packet reached full IP";
  EXPECT_GT(run.sa_flow_processed, 0u) << "no packet ran the per-flow StrongARM forwarder";
  EXPECT_GT(s.icmp_originated, 0u) << "no ICMP error";
  EXPECT_GT(s.icmp_generated, s.icmp_originated) << "no echo reply";
  EXPECT_GT(s.pe_absorbed, 0u) << "no OSPF-lite frame consumed";
  EXPECT_GT(s.pentium_processed, s.pe_absorbed) << "no Pentium packet returned";
  EXPECT_GT(s.dropped_by_vrp, 0u) << "the general port filter dropped nothing";
  EXPECT_GT(s.sa_local_processed, 0u);
  uint64_t reenqueue_full = 0;
  for (const SpanRecord& r : run.records) {
    if (r.point == static_cast<uint8_t>(SpanPoint::kDropQueueFull) && r.unit == kUnitStrongArm) {
      ++reenqueue_full;
    }
  }
  EXPECT_GT(reenqueue_full, 0u) << "no StrongARM re-enqueue met a full queue";

  // Pinned values: the span stream and the transmitted frames may only
  // change together with a deliberate change of exception-path timing or
  // bytes.
  EXPECT_EQ(run.records.size(), 8055u);
  EXPECT_EQ(RenderedFnv1a(run.records), 0x777d4974e20837f1ULL);
  EXPECT_EQ(run.frames, 696u);
  EXPECT_EQ(run.frames_fnv, 0x5a34151578efb404ULL);
}

// --- reconciliation: span fold == RouterStats, profiler == engines -------

TEST(ReconciliationTest, SpanFoldMatchesRouterStatsAcrossSeedsAndFaults) {
  struct Case {
    uint64_t seed;
    bool chaos;
  };
  const Case cases[] = {{1, false}, {2, true}, {3, true}, {4, false}};
  for (const Case& c : cases) {
    SCOPED_TRACE("seed=" + std::to_string(c.seed) + (c.chaos ? " chaos" : " fault-free"));
    RouterConfig cfg;
    if (c.chaos) {
      // Chaos (frame faults, bit flips, crashes, descriptor corruption)
      // but no degraded-mode shedding: a shed pop does not re-validate the
      // buffer generation, so a lapped buffer would erase the successor's
      // track and the accounting below is only exact without shedding.
      cfg.fault_plan = FaultPlan::Chaos(c.seed);
    }
    auto router = MakeRouter(std::move(cfg));
    ObserverConfig ocfg;
    ocfg.tracker_slots = 1u << 16;
    Observer obs(router->engine(), ocfg);
    router->SetObserver(&obs);
    router->Start();
    std::vector<std::unique_ptr<TrafficGen>> gens;
    DriveTraffic(*router, &gens, 6.0, /*ports=*/4, /*rate_pps=*/120'000,
                 /*seed_base=*/700 * c.seed);
    router->RunForMs(10.0);  // 4 ms drain after the last frame

    const RouterStats& stats = router->stats();
    ASSERT_GT(stats.forwarded, 1000u);
    ASSERT_EQ(obs.tracker_overflows(), 0u);

    // Every RouterStats disposition counter has exactly one span point
    // recorded adjacent to it.
    EXPECT_EQ(obs.point_count(SpanPoint::kPktIngress), stats.input.packets);
    EXPECT_EQ(obs.point_count(SpanPoint::kPktTxComplete), stats.forwarded);
    EXPECT_EQ(obs.point_count(SpanPoint::kDropInvalid), stats.dropped_invalid);
    EXPECT_EQ(obs.point_count(SpanPoint::kDropVrp), stats.dropped_by_vrp);
    EXPECT_EQ(obs.point_count(SpanPoint::kDropQueueFull), stats.dropped_queue_full);
    EXPECT_EQ(obs.point_count(SpanPoint::kDropNoBuffer), stats.dropped_no_buffer);
    EXPECT_EQ(obs.point_count(SpanPoint::kOutLostLap), stats.lost_overwritten);
    EXPECT_EQ(obs.point_count(SpanPoint::kSaLapped), stats.sa_lapped);
    EXPECT_EQ(obs.point_count(SpanPoint::kSaAbsorbed), stats.sa_absorbed);
    EXPECT_EQ(obs.point_count(SpanPoint::kPeAbsorbed), stats.pe_absorbed);
    EXPECT_EQ(obs.point_count(SpanPoint::kSaShedPe), stats.pkts_shed_degraded);
    EXPECT_EQ(obs.point_count(SpanPoint::kIcmpOriginated), stats.icmp_originated);
    EXPECT_EQ(obs.point_count(SpanPoint::kSaDequeued), stats.sa_local_processed)
        << "every valid StrongARM dequeue is one locally processed packet";
    EXPECT_EQ(obs.point_count(SpanPoint::kPeServiced), stats.pentium_processed);

    uint64_t corrupt_drops = 0;
    for (const auto& q : router->queues().all_queues()) {
      corrupt_drops += q->corrupt_drops();
    }
    corrupt_drops += router->sa_local_queue().corrupt_drops();
    corrupt_drops += router->sa_pentium_queue().corrupt_drops();
    EXPECT_EQ(obs.point_count(SpanPoint::kQueueCorrupt), corrupt_drops);

    // The span fold reproduces the conservation balance the invariant
    // checker computes from the counters.
    const InvariantReport report = RouterInvariants::CheckAll(*router);
    EXPECT_TRUE(report.ok()) << report.ToString();
    ASSERT_TRUE(report.conservation_checked);
    EXPECT_EQ(obs.point_count(SpanPoint::kPktIngress) +
                  obs.point_count(SpanPoint::kIcmpOriginated),
              report.sources);

    // Tracker balance: a chain stays open iff the packet is visibly in
    // flight or left through a path that cannot name it (lapped buffers,
    // corrupted descriptors).
    EXPECT_EQ(obs.tracker_live(),
              report.in_flight + stats.lost_overwritten + stats.sa_lapped + corrupt_drops);

    // Forwarded packets split across the per-path latency histograms.
    uint64_t path_total = 0;
    for (int p = 0; p < kPathKindCount; ++p) {
      path_total += obs.path_latency(static_cast<PathKind>(p)).count();
    }
    EXPECT_EQ(path_total, stats.forwarded);

    // Per-stage cycle sums equal the profiler totals: the profiler's view
    // of each context and engine matches the hardware model's own books.
    for (int me = 0; me < router->chip().num_mes(); ++me) {
      MicroEngine& engine = router->chip().me(me);
      EXPECT_EQ(obs.profiler().EngineComputeCycles(static_cast<uint8_t>(me)),
                engine.busy_cycles())
          << "engine " << me;
      for (int ctx = 0; ctx < engine.num_contexts(); ++ctx) {
        EXPECT_EQ(obs.profiler()
                      .slot(static_cast<uint8_t>(me), static_cast<uint8_t>(ctx))
                      .compute_cycles,
                  engine.context(ctx).compute_cycles())
            << "engine " << me << " ctx " << ctx;
      }
    }
  }
}

// --- flight recorder ------------------------------------------------------

TEST(FlightRecorderTest, VrpTrapDumpContainsFaultedPacketChain) {
  FaultPlan plan;
  plan.vrp_trap_p = 1.0;  // the first VRP run traps
  RouterConfig cfg;
  cfg.fault_plan = plan;
  auto router = MakeRouter(std::move(cfg));
  Observer obs(router->engine());
  router->SetObserver(&obs);
  router->Start();

  VrpProgram monitor = BuildSynMonitor();
  InstallRequest req;
  req.key = FlowKey::All();
  req.where = Where::kMicroEngine;
  req.program = &monitor;
  const InstallOutcome outcome = router->Install(req);
  ASSERT_TRUE(outcome.ok) << outcome.error;

  std::vector<std::unique_ptr<TrafficGen>> gens;
  DriveTraffic(*router, &gens, 4.0, /*ports=*/1);
  router->RunForMs(6.0);

  ASSERT_GT(router->stats().vrp_traps, 0u);
  const FlightRecorder& rec = obs.recorder();
  ASSERT_TRUE(rec.has_dump());
  const FlightRecorder::Dump& dump = rec.dump();
  EXPECT_EQ(dump.reason, "vrp_trap");
  ASSERT_NE(dump.packet_id, 0u);
  EXPECT_EQ(rec.dump_triggers(), router->stats().vrp_traps)
      << "every trap triggers; only the first dump is kept";

  // The dump must hold the faulted packet's chain up to the failure point:
  // wire arrival, ingress, then the fault — and nothing after it, because
  // the snapshot was taken at the instant of the trap.
  std::vector<SpanPoint> chain;
  for (const SpanRecord& r : dump.records) {
    if (r.packet_id == dump.packet_id) {
      chain.push_back(static_cast<SpanPoint>(r.point));
    }
  }
  ASSERT_GE(chain.size(), 3u) << FlightRecorder::Format(dump);
  EXPECT_EQ(chain.front(), SpanPoint::kMacRxFrame);
  EXPECT_EQ(chain[1], SpanPoint::kPktIngress);
  EXPECT_EQ(chain.back(), SpanPoint::kFault);
  const std::string text = FlightRecorder::Format(dump);
  EXPECT_NE(text.find("vrp_trap"), std::string::npos);
  EXPECT_NE(text.find("fault"), std::string::npos);
}

TEST(FlightRecorderTest, LostTokenDumpAndRecoverySpanAfterMttr) {
  FaultPlan plan;
  plan.token_lost_p = 5e-5;
  RouterConfig cfg;
  cfg.fault_plan = plan;
  auto router = MakeRouter(std::move(cfg));
  ObserverConfig ocfg;
  ocfg.capture_reserve = 1u << 20;
  Observer obs(router->engine(), ocfg);
  router->SetObserver(&obs);
  router->Start();
  HealthMonitor health(*router);

  std::vector<std::unique_ptr<TrafficGen>> gens;
  DriveTraffic(*router, &gens, 10.0);
  router->RunForMs(13.0);

  ASSERT_GT(router->stats().tokens_regenerated, 0u);
  ASSERT_TRUE(obs.recorder().has_dump());
  EXPECT_EQ(obs.recorder().dump().reason, "token_lost");
  ASSERT_GT(obs.point_count(SpanPoint::kRecovery), 0u);

  // Each token regeneration leaves a recovery span stamped exactly at the
  // event's recovered_at — i.e. MTTR after the fault the dump recorded.
  size_t regens_matched = 0;
  for (const RecoveryEvent& e : health.events()) {
    if (e.kind != RecoveryEvent::Kind::kTokenRegen) {
      continue;
    }
    bool found = false;
    for (const SpanRecord& r : obs.capture()) {
      if (static_cast<SpanPoint>(r.point) == SpanPoint::kRecovery &&
          r.unit == kUnitHealth &&
          r.arg == static_cast<uint16_t>(RecoveryEvent::Kind::kTokenRegen) &&
          r.t_ps == static_cast<uint64_t>(e.recovered_at)) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << "no recovery span at recovered_at=" << e.recovered_at;
    EXPECT_EQ(e.mttr_ps(), e.recovered_at - e.fault_at);
    EXPECT_GE(e.mttr_ps(), health.config().token_deadline_ps);
    ++regens_matched;
  }
  EXPECT_GT(regens_matched, 0u);
  // The recovery span postdates the fault evidence in the dump.
  for (const SpanRecord& r : obs.capture()) {
    if (static_cast<SpanPoint>(r.point) == SpanPoint::kRecovery) {
      EXPECT_GT(r.t_ps, static_cast<uint64_t>(obs.recorder().dump().t_ps));
      break;
    }
  }
}

// Observing does not change the simulation. Each case is one of the
// isolated measurement setups (§3.5.1: synthetic MPs, no Pentium or
// StrongARM, one stage against a zero-cost drain or fake descriptors),
// built and timed as its bench builds and times it; the run with an
// Observer attached must match the bare run event for event.
struct IsolatedCase {
  const char* name;
  RouterConfig config;
  double measure_ms;  // after a 2 ms warm-up
  double ns_per_pkt;  // EXPERIMENTS.md rate to hold within ±2%; 0 = none
};

void PrintTo(const IsolatedCase& c, std::ostream* os) { *os << c.name; }

RouterConfig IsolatedBase() {
  RouterConfig cfg;
  cfg.port_mode = PortMode::kInfiniteFifo;
  cfg.enable_pentium = false;
  cfg.enable_strongarm = false;
  return cfg;
}

RouterConfig InputOnly(InputQueueing iq, bool single_dst) {
  RouterConfig cfg = IsolatedBase();
  cfg.input_queueing = iq;
  cfg.output_contexts_override = 0;
  cfg.magic_drain = true;
  cfg.synthetic_single_dst = single_dst;
  return cfg;
}

RouterConfig OutputOnly(OutputServicing os) {
  RouterConfig cfg = IsolatedBase();
  cfg.input_contexts_override = 0;
  cfg.output_fake_data = true;
  cfg.output_servicing = os;
  return cfg;
}

// bench/fig10_contention's maximal-contention run at 64 VRP blocks.
RouterConfig Fig10MaxContention() {
  RouterConfig cfg = InputOnly(InputQueueing::kProtectedPublic, true);
  cfg.vrp_blocks_reg = 64;
  cfg.vrp_blocks_sram = 64;
  return cfg;
}

const IsolatedCase kIsolatedCases[] = {
    {"I1", InputOnly(InputQueueing::kPrivatePerContext, false), 10, 0},
    {"I2", InputOnly(InputQueueing::kProtectedPublic, false), 10, 0},
    {"I3", InputOnly(InputQueueing::kProtectedPublic, true), 10, 0},
    {"O1", OutputOnly(OutputServicing::kSingleQueueBatching), 10, 0},
    {"O2", OutputOnly(OutputServicing::kSingleQueueNoBatching), 10, 0},
    {"O3", OutputOnly(OutputServicing::kMultiQueueIndirection), 10, 0},
    {"Fig10MaxContention64Blocks", Fig10MaxContention(), 8, 1710},
};

struct IsolatedRun {
  uint64_t events_run = 0;
  uint64_t forwarded = 0;
  StageStats input;
  StageStats output;
  double mpps = 0;
};

IsolatedRun RunIsolated(const IsolatedCase& c, bool observed) {
  Router router(c.config);
  Observer obs(router.engine());
  if (observed) {
    router.SetObserver(&obs);
  }
  for (int p = 0; p < router.num_ports(); ++p) {
    router.AddRoute("10." + std::to_string(p) + ".0.0/16", static_cast<uint8_t>(p));
  }
  router.WarmRouteCache(8);
  router.Start();
  router.RunForMs(2.0);
  router.StartMeasurement();
  router.RunForMs(c.measure_ms);
  return {router.engine().events_run(), router.stats().forwarded, router.stats().input,
          router.stats().output, router.ForwardingRateMpps()};
}

void ExpectSameStage(const StageStats& bare, const StageStats& observed, const char* stage) {
  SCOPED_TRACE(stage);
  EXPECT_EQ(bare.mps, observed.mps);
  EXPECT_EQ(bare.packets, observed.packets);
  EXPECT_EQ(bare.reg_cycles, observed.reg_cycles);
  EXPECT_EQ(bare.sram_reads, observed.sram_reads);
  EXPECT_EQ(bare.sram_writes, observed.sram_writes);
  EXPECT_EQ(bare.dram_reads, observed.dram_reads);
  EXPECT_EQ(bare.dram_writes, observed.dram_writes);
  EXPECT_EQ(bare.scratch_reads, observed.scratch_reads);
  EXPECT_EQ(bare.scratch_writes, observed.scratch_writes);
  EXPECT_EQ(bare.mutex_ops, observed.mutex_ops);
}

class ObserverNeutrality : public ::testing::TestWithParam<IsolatedCase> {};

TEST_P(ObserverNeutrality, SameEventsAndCountersWithAndWithoutObserver) {
  const IsolatedCase& c = GetParam();
  const IsolatedRun bare = RunIsolated(c, false);
  const IsolatedRun observed = RunIsolated(c, true);
  EXPECT_GT(bare.forwarded, 0u);
  EXPECT_EQ(bare.events_run, observed.events_run);
  EXPECT_EQ(bare.forwarded, observed.forwarded);
  ExpectSameStage(bare.input, observed.input, "input");
  ExpectSameStage(bare.output, observed.output, "output");
  if (c.ns_per_pkt > 0) {
    EXPECT_NEAR(1000.0 / bare.mpps, c.ns_per_pkt, 0.02 * c.ns_per_pkt);
  }
}

INSTANTIATE_TEST_SUITE_P(Isolated, ObserverNeutrality, ::testing::ValuesIn(kIsolatedCases),
                         [](const ::testing::TestParamInfo<IsolatedCase>& info) {
                           return std::string(info.param.name);
                         });

// --- component unit tests (run in any build; Record() is gated only at
// the hook sites, not on the Observer API itself) -------------------------

TEST(SpanTest, NamesAreStableAndTerminalsClassified) {
  for (int p = 0; p < kSpanPointCount; ++p) {
    EXPECT_STRNE(SpanPointName(static_cast<SpanPoint>(p)), "?") << "point " << p;
  }
  EXPECT_STREQ(SpanPointName(SpanPoint::kPktIngress), "in.ingress");
  EXPECT_STREQ(SpanPointName(SpanPoint::kPktTxComplete), "out.tx_complete");
  EXPECT_TRUE(IsTerminal(SpanPoint::kDropVrp));
  EXPECT_TRUE(IsErasingTerminal(SpanPoint::kDropVrp));
  EXPECT_TRUE(IsTerminal(SpanPoint::kOutLostLap));
  EXPECT_FALSE(IsErasingTerminal(SpanPoint::kOutLostLap));
  EXPECT_TRUE(IsTerminal(SpanPoint::kSaLapped));
  EXPECT_FALSE(IsErasingTerminal(SpanPoint::kSaLapped));
  EXPECT_FALSE(IsTerminal(SpanPoint::kQueuePush));
  EXPECT_EQ(ContextUnit(3, 2), 14);
}

TEST(FlightRecorderUnitTest, RingWrapsAndFirstDumpWins) {
  FlightRecorder rec(4);  // clamped up to the minimum capacity
  EXPECT_GE(rec.capacity(), 16u);
  const size_t cap = rec.capacity();
  for (uint64_t i = 0; i < cap + 10; ++i) {
    rec.Record(SpanRecord{i, static_cast<uint32_t>(i), 0, 0, 0});
  }
  EXPECT_EQ(rec.size(), cap);
  const std::vector<SpanRecord> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), cap);
  EXPECT_EQ(snap.front().t_ps, 10u);  // oldest surviving record
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].t_ps, snap[i].t_ps);
  }

  rec.TriggerDump("first", 7, 123);
  rec.TriggerDump("second", 8, 456);
  EXPECT_TRUE(rec.has_dump());
  EXPECT_EQ(rec.dump_triggers(), 2u);
  EXPECT_EQ(rec.dump().reason, "first");
  EXPECT_EQ(rec.dump().packet_id, 7u);
  EXPECT_EQ(rec.dump().t_ps, 123);
  EXPECT_EQ(rec.dump().records.size(), cap);
  const std::string text = FlightRecorder::Format(rec.dump());
  EXPECT_NE(text.find("first"), std::string::npos);

  rec.Reset();
  EXPECT_FALSE(rec.has_dump());
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dump_triggers(), 0u);
}

TEST(CycleProfilerUnitTest, AttributionAndAggregates) {
  CycleProfiler prof;
  prof.AddCompute(0, 0, 100);
  prof.AddCompute(0, 1, 50);
  prof.AddCompute(2, 3, 25);
  prof.AddWait(0, 0, WaitClass::kDram, 1000);
  prof.AddWait(0, 0, WaitClass::kDram, 500);
  prof.AddWait(0, 1, WaitClass::kToken, 2000);
  prof.AddWait(2, 3, WaitClass::kMutex, 300);

  EXPECT_EQ(prof.slot(0, 0).compute_cycles, 100u);
  EXPECT_EQ(prof.slot(0, 0).compute_bursts, 1u);
  EXPECT_EQ(prof.slot(0, 0).wait_ps[static_cast<int>(WaitClass::kDram)], 1500u);
  EXPECT_EQ(prof.slot(0, 0).waits[static_cast<int>(WaitClass::kDram)], 2u);
  EXPECT_EQ(prof.EngineComputeCycles(0), 150u);
  EXPECT_EQ(prof.EngineWaitPs(0, WaitClass::kToken), 2000u);
  EXPECT_EQ(prof.TotalComputeCycles(), 175u);
  EXPECT_EQ(prof.TotalWaitPs(WaitClass::kMutex), 300u);
  for (int w = 0; w < kWaitClassCount; ++w) {
    EXPECT_STRNE(WaitClassName(static_cast<WaitClass>(w)), "?");
  }
  const std::string report = prof.Report();
  EXPECT_NE(report.find("me0"), std::string::npos);
  EXPECT_NE(report.find("me2"), std::string::npos);
  EXPECT_EQ(report.find("me1"), std::string::npos) << "idle engines are omitted";

  prof.Reset();
  EXPECT_EQ(prof.TotalComputeCycles(), 0u);
  EXPECT_EQ(prof.TotalWaitPs(WaitClass::kDram), 0u);
}

// Drives Observer::Record directly at controlled simulated times. Each
// Run() advances the epoch so a later At() never schedules into the past.
class ObserverHarness {
 public:
  explicit ObserverHarness(ObserverConfig cfg = {}) : obs_(engine_, cfg) {}

  void At(SimTime t, SpanPoint p, uint32_t id, uint8_t unit = 0, uint16_t arg = 0) {
    engine_.Schedule(epoch_ + t, [this, p, id, unit, arg] { obs_.Record(p, id, unit, arg); });
  }
  void Run() {
    engine_.RunFor(1 * kPsPerMs);
    epoch_ += 1 * kPsPerMs;
  }

  EventQueue engine_;
  Observer obs_;
  SimTime epoch_ = 0;
};

TEST(ObserverUnitTest, PathClassificationAndHopHistograms) {
  ObserverHarness h;
  // Path A: ingress -> enqueued -> queue wait -> output -> tx.
  h.At(1000, SpanPoint::kPktIngress, 1);
  h.At(3000, SpanPoint::kInEnqueued, 1);
  h.At(9000, SpanPoint::kOutDequeued, 1);
  h.At(12'000, SpanPoint::kPktTxComplete, 1);
  // Path B: diverted to the StrongARM.
  h.At(2000, SpanPoint::kPktIngress, 2);
  h.At(4000, SpanPoint::kInToSa, 2);
  h.At(20'000, SpanPoint::kSaDequeued, 2);
  h.At(30'000, SpanPoint::kSaForwarded, 2);
  h.At(40'000, SpanPoint::kOutDequeued, 2);
  h.At(52'000, SpanPoint::kPktTxComplete, 2);
  // Path C: to the Pentium and back.
  h.At(5000, SpanPoint::kPktIngress, 3);
  h.At(6000, SpanPoint::kInToPe, 3);
  h.At(7000, SpanPoint::kBridgeToPe, 3);
  h.At(8000, SpanPoint::kPeIntake, 3);
  h.At(9000, SpanPoint::kPeServiced, 3);
  h.At(10'000, SpanPoint::kPeReturned, 3);
  h.At(11'000, SpanPoint::kSaReturnEnqueued, 3);
  h.At(13'000, SpanPoint::kOutDequeued, 3);
  h.At(15'000, SpanPoint::kPktTxComplete, 3);
  h.Run();

  EXPECT_EQ(h.obs_.records(), 19u);
  EXPECT_EQ(h.obs_.tracker_live(), 0u);
  EXPECT_EQ(h.obs_.path_latency(PathKind::kPathA).count(), 1u);
  EXPECT_EQ(h.obs_.path_latency(PathKind::kPathB).count(), 1u);
  EXPECT_EQ(h.obs_.path_latency(PathKind::kPathC).count(), 1u);
  // End-to-end: (12000 - 1000) ps = 11 ns for packet 1.
  EXPECT_EQ(h.obs_.path_latency(PathKind::kPathA).max(), 11u);
  EXPECT_EQ(h.obs_.path_latency(PathKind::kPathB).max(), 50u);
  EXPECT_GT(h.obs_.hop_latency(HopKind::kInput).count(), 0u);
  EXPECT_GT(h.obs_.hop_latency(HopKind::kQueueWait).count(), 0u);
  EXPECT_GT(h.obs_.hop_latency(HopKind::kOutput).count(), 0u);
  EXPECT_GT(h.obs_.hop_latency(HopKind::kSaService).count(), 0u);
  EXPECT_GT(h.obs_.hop_latency(HopKind::kPeService).count(), 0u);
}

TEST(ObserverUnitTest, TerminalsEraseAndLapPointsDoNot) {
  ObserverHarness h;
  h.At(1000, SpanPoint::kPktIngress, 10);
  h.At(2000, SpanPoint::kDropInvalid, 10);  // erases
  h.At(3000, SpanPoint::kPktIngress, 11);
  h.At(4000, SpanPoint::kOutLostLap, 12);   // successor id: must not erase 11
  h.At(5000, SpanPoint::kIcmpOriginated, 13);  // a source: opens a chain
  h.At(6000, SpanPoint::kQueuePush, 11);    // buffer-index points never track
  h.At(7000, SpanPoint::kFault, 11);        // fault spans never track
  h.Run();

  EXPECT_EQ(h.obs_.tracker_live(), 2u);  // 11 (lapped away) and 13 (in flight)
  EXPECT_EQ(h.obs_.point_count(SpanPoint::kOutLostLap), 1u);
  EXPECT_EQ(h.obs_.point_count(SpanPoint::kQueuePush), 1u);
  // Untracked ids are ignored, id 0 is never tracked.
  h.At(8000, SpanPoint::kPktTxComplete, 99);
  h.At(9000, SpanPoint::kPktIngress, 0);
  h.Run();
  EXPECT_EQ(h.obs_.tracker_live(), 2u);
}

TEST(ObserverUnitTest, TrackerCollisionsBackwardShiftAndOverflow) {
  ObserverConfig cfg;
  cfg.tracker_slots = 64;  // force collisions: ids 1, 65, 129 share a home
  ObserverHarness h(cfg);
  h.At(1000, SpanPoint::kPktIngress, 1);
  h.At(1100, SpanPoint::kPktIngress, 65);
  h.At(1200, SpanPoint::kPktIngress, 129);
  h.At(2000, SpanPoint::kDropInvalid, 65);  // erase the middle of the chain
  h.Run();
  EXPECT_EQ(h.obs_.tracker_live(), 2u);
  // Both survivors must still be findable after the backward shift.
  h.At(3000, SpanPoint::kDropInvalid, 129);
  h.At(3100, SpanPoint::kDropInvalid, 1);
  h.Run();
  EXPECT_EQ(h.obs_.tracker_live(), 0u);

  // Fill the table far past capacity: FindOrCreate gives up after its probe
  // bound and counts the overflow instead of clobbering live chains.
  for (uint32_t i = 0; i < 300; ++i) {
    h.At(4000 + i, SpanPoint::kPktIngress, 1000 + i);
  }
  h.Run();
  EXPECT_GT(h.obs_.tracker_overflows(), 0u);
  EXPECT_LE(h.obs_.tracker_live(), 64u);
}

TEST(ObserverUnitTest, CaptureReserveTruncatesInsteadOfGrowing) {
  ObserverConfig cfg;
  cfg.capture_reserve = 4;
  ObserverHarness h(cfg);
  for (uint32_t i = 0; i < 10; ++i) {
    h.At(1000 + i, SpanPoint::kMacRxFrame, i, kUnitMacBase);
  }
  h.Run();
  EXPECT_EQ(h.obs_.capture().size(), 4u);
  EXPECT_TRUE(h.obs_.capture_truncated());
  EXPECT_EQ(h.obs_.records(), 10u);  // counting is not truncated
}

}  // namespace
}  // namespace npr

// Fault-injection chaos bench: runs the same real-port workload under every
// shipped FaultPlan and reports the surviving forwarding rate, the injected
// fault counts, and whether all router invariants still hold at the end.
// A robust router degrades — it never wedges, leaks, or lies.

// The recovery suite attaches the health monitor and reports MTTD/MTTR per
// fault class (token loss, lost context restarts, Pentium hangs) plus the
// path-A rate ratio after a RecoveryChaos burst ends — the self-healing
// acceptance numbers, each row bounded by its budget (ci/smoke.sh runs a
// seed matrix).

#include <cinttypes>
#include <cstdlib>

#include "bench/bench_util.h"
#include "src/fault/fault_injector.h"
#include "src/fault/router_invariants.h"
#include "src/forwarders/native.h"
#include "src/health/health_monitor.h"

namespace npr {
namespace {

struct ChaosResult {
  double forwarded_kpps = 0;
  uint64_t injected = 0;
  uint64_t crashes = 0;
  uint64_t counted_drops = 0;
  bool invariants_ok = false;
  std::string report;
};

ChaosResult RunPlan(const FaultPlan& plan) {
  constexpr double kTrafficMs = 20.0;
  constexpr double kDrainMs = 5.0;

  RouterConfig cfg;
  cfg.fault_plan = plan;
  Router router(std::move(cfg));
  bench::AddDefaultRoutes(router);
  router.WarmRouteCache(32);
  router.Start();
  std::vector<std::unique_ptr<TrafficGen>> gens;
  for (int p = 0; p < 8; ++p) {
    TrafficSpec spec;
    spec.rate_pps = 120'000;
    spec.dst_spread = 16;
    gens.push_back(std::make_unique<TrafficGen>(router.engine(), router.port(p), spec,
                                                static_cast<uint64_t>(40 + p)));
    gens.back()->Start(static_cast<SimTime>(kTrafficMs * kPsPerMs));
  }
  router.RunForMs(kTrafficMs + kDrainMs);
  bench::RecordEvents(router.engine().events_run());

  ChaosResult r;
  const RouterStats& stats = router.stats();
  r.forwarded_kpps = static_cast<double>(stats.forwarded) / kTrafficMs;  // pkts/ms = kpps
  if (FaultInjector* fi = router.fault_injector()) {
    r.injected = fi->total_injected();
  }
  r.crashes = stats.context_crashes;
  uint64_t corrupt = 0;
  for (const auto& q : router.queues().all_queues()) {
    corrupt += q->corrupt_drops();
  }
  uint64_t crc = 0;
  for (int p = 0; p < router.num_ports(); ++p) {
    crc += router.port(p).rx_crc_dropped();
  }
  r.counted_drops = stats.dropped_invalid + stats.dropped_queue_full +
                    stats.lost_overwritten + corrupt + crc;
  const InvariantReport inv = RouterInvariants::CheckAll(router);
  r.invariants_ok = inv.ok();
  r.report = inv.ToString();
  return r;
}

// --- recovery suite ---

struct RecoverySummary {
  double mttd_us = 0;  // mean fault -> detection
  double mttr_us = 0;  // mean fault -> service restored
  int recovered = 0;
  int unrecovered = 0;
  bool invariants_ok = false;
};

void Accumulate(const HealthMonitor& health, RecoveryEvent::Kind kind, RecoverySummary* out) {
  double mttd = 0;
  double mttr = 0;
  for (const RecoveryEvent& e : health.events()) {
    if (e.kind != kind) {
      continue;
    }
    if (e.recovered_at == 0) {
      out->unrecovered += 1;
      continue;
    }
    out->recovered += 1;
    mttd += static_cast<double>(e.mttd_ps()) / kPsPerUs;
    mttr += static_cast<double>(e.mttr_ps()) / kPsPerUs;
  }
  if (out->recovered > 0) {
    out->mttd_us = mttd / out->recovered;
    out->mttr_us = mttr / out->recovered;
  }
}

// Real-port traffic run with the health monitor attached; returns the
// per-class summary for `kind`.
RecoverySummary RunRecovery(const FaultPlan& plan, RecoveryEvent::Kind kind) {
  constexpr double kTrafficMs = 20.0;
  RouterConfig cfg;
  cfg.fault_plan = plan;
  Router router(std::move(cfg));
  bench::AddDefaultRoutes(router);
  router.WarmRouteCache(32);
  router.Start();
  HealthMonitor health(router);
  std::vector<std::unique_ptr<TrafficGen>> gens;
  for (int p = 0; p < 8; ++p) {
    TrafficSpec spec;
    spec.rate_pps = 120'000;
    spec.dst_spread = 16;
    gens.push_back(std::make_unique<TrafficGen>(router.engine(), router.port(p), spec,
                                                static_cast<uint64_t>(40 + p)));
    gens.back()->Start(static_cast<SimTime>(kTrafficMs * kPsPerMs));
  }
  router.RunForMs(kTrafficMs + 5.0);
  bench::RecordEvents(router.engine().events_run());
  RecoverySummary s;
  Accumulate(health, kind, &s);
  s.invariants_ok = RouterInvariants::CheckAll(router).ok();
  return s;
}

// Pentium hangs need host-bound load: §3.5.1 infinite-FIFO ports with a
// Pentium share of the traffic.
RecoverySummary RunPentiumRecovery() {
  FaultPlan plan;
  plan.pentium_hang_mean_ps = 4 * kPsPerMs;
  plan.pentium_hang_ps = 1500 * kPsPerUs;
  RouterConfig cfg;
  cfg.fault_plan = plan;
  cfg.port_mode = PortMode::kInfiniteFifo;
  cfg.enable_strongarm = true;
  cfg.enable_pentium = true;
  cfg.synthetic_pentium_fraction = 0.3;
  Router router(std::move(cfg));
  bench::AddDefaultRoutes(router);
  const int idx = router.pe_forwarders().Register(std::make_unique<FixedCostForwarder>("svc", 100));
  InstallRequest req;
  req.key = FlowKey::All();
  req.where = Where::kPentium;
  req.native_index = idx;
  req.expected_pps = 100'000;
  router.Install(req);
  router.Start();
  HealthMonitor health(router);
  router.RunForMs(20.0);
  bench::RecordEvents(router.engine().events_run());
  RecoverySummary s;
  Accumulate(health, RecoveryEvent::Kind::kPentiumDegrade, &s);
  s.invariants_ok = RouterInvariants::CheckAll(router).ok();
  return s;
}

// RecoveryChaos burst, then disarm and measure path A: the rate must return
// to the fault-free baseline. Returns {ratio, invariants_ok, health line}.
struct ChaosRecovery {
  double ratio = 0;
  bool invariants_ok = false;
  std::string health_line;
};

ChaosRecovery RunChaosRecovery(uint64_t seed) {
  auto run = [seed](bool faulty, std::string* health_line) {
    RouterConfig cfg;
    if (faulty) {
      cfg.fault_plan = FaultPlan::RecoveryChaos(seed);
    }
    Router router(std::move(cfg));
    bench::AddDefaultRoutes(router);
    router.WarmRouteCache(32);
    router.Start();
    HealthMonitor health(router);
    std::vector<std::unique_ptr<TrafficGen>> gens;
    constexpr double kTrafficMs = 30.0;
    for (int p = 0; p < 8; ++p) {
      TrafficSpec spec;
      spec.rate_pps = 120'000;
      spec.dst_spread = 16;
      gens.push_back(std::make_unique<TrafficGen>(router.engine(), router.port(p), spec,
                                                  static_cast<uint64_t>(40 + p)));
      gens.back()->Start(static_cast<SimTime>(kTrafficMs * kPsPerMs));
    }
    router.RunForMs(15.0);  // fault burst (or plain warmup)
    if (faulty && router.fault_injector() != nullptr) {
      router.fault_injector()->set_armed(false);
    }
    router.RunForMs(3.0);  // recovery grace
    router.StartMeasurement();
    router.RunForMs(10.0);
    bench::RecordEvents(router.engine().events_run());
    if (health_line != nullptr) {
      *health_line = HealthSummary(router.stats());
    }
    struct {
      double rate;
      bool ok;
    } out{router.ForwardingRateMpps(), RouterInvariants::CheckAll(router).ok()};
    return out;
  };
  const auto baseline = run(false, nullptr);
  ChaosRecovery r;
  const auto recovered = run(true, &r.health_line);
  r.ratio = baseline.rate > 0 ? recovered.rate / baseline.rate : 0;
  r.invariants_ok = baseline.ok && recovered.ok;
  return r;
}

}  // namespace
}  // namespace npr

int main(int argc, char** argv) {
  using namespace npr;

  // Optional seed (ci/smoke.sh runs a small matrix): every plan in both
  // suites is re-seeded; every seed must survive and hold the budgets.
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 0) : 0xfa017ULL;
  bench::SetRunInfo(seed, "chaos+recovery");

  bench::Title("fault injection: forwarding under every shipped plan");
  std::printf("%-14s %12s %10s %9s %13s %11s\n", "plan", "fwd (kpps)", "injected",
              "crashes", "counted drops", "invariants");
  std::printf("%-14s %12s %10s %9s %13s %11s\n", "--------------", "-----------",
              "---------", "--------", "------------", "----------");

  const struct {
    const char* name;
    FaultPlan plan;
  } plans[] = {
      {"none", FaultPlan{}},
      {"memory", FaultPlan::MemoryFaults(seed)},
      {"frame", FaultPlan::FrameFaults(seed)},
      {"crash", FaultPlan::ContextCrashes(seed)},
      {"token", FaultPlan::TokenFaults(seed)},
      {"descriptor", FaultPlan::DescriptorFaults(seed)},
      {"chaos", FaultPlan::Chaos(seed)},
  };

  bool all_ok = true;
  for (const auto& p : plans) {
    const ChaosResult r = RunPlan(p.plan);
    std::printf("%-14s %12.1f %10" PRIu64 " %9" PRIu64 " %13" PRIu64 " %11s\n", p.name,
                r.forwarded_kpps, r.injected, r.crashes, r.counted_drops,
                r.invariants_ok ? "PASS" : "FAIL");
    if (!r.invariants_ok) {
      all_ok = false;
      std::printf("  %s\n", r.report.c_str());
    }
  }
  bench::Note("faults degrade throughput but must never wedge the pipeline,");
  bench::Note("leak a packet from the conservation balance, or corrupt queue state.");

  // --- self-healing: detection and recovery per fault class ---
  // The "paper" column is the expected value: the HealthConfig deadline
  // plus about one watchdog scan (for Pentium hangs, the injected hang
  // length dominates MTTR). The bound is the budget.
  bench::Title("self-healing: MTTD / MTTR per fault class (health monitor attached)");
  bench::RowHeader();

  FaultPlan token_plan;
  token_plan.seed = seed;
  token_plan.token_lost_p = 5e-5;
  const RecoverySummary token = RunRecovery(token_plan, RecoveryEvent::Kind::kTokenRegen);
  bench::Row("recovery: token regen MTTD", 250.0, token.mttd_us, "us",
             bench::PositiveAtMost(300.0));
  bench::Row("recovery: token regen MTTR", 250.0, token.mttr_us, "us",
             bench::PositiveAtMost(1000.0));

  FaultPlan ctx_plan;
  ctx_plan.seed = seed;
  ctx_plan.context_crash_mean_ps = 2 * kPsPerMs;
  ctx_plan.context_restart_ps = 50 * kPsPerUs;
  ctx_plan.restart_lost_p = 1.0;  // only the watchdog can bring contexts back
  const RecoverySummary ctx = RunRecovery(ctx_plan, RecoveryEvent::Kind::kContextRestore);
  bench::Row("recovery: context restore MTTD", 600.0, ctx.mttd_us, "us",
             bench::PositiveAtMost(700.0));
  bench::Row("recovery: context restore MTTR", 600.0, ctx.mttr_us, "us",
             bench::PositiveAtMost(2000.0));

  const RecoverySummary pe = RunPentiumRecovery();
  bench::Row("recovery: pentium degrade MTTD", 350.0, pe.mttd_us, "us",
             bench::PositiveAtMost(400.0));
  bench::Row("recovery: pentium degrade MTTR", 2500.0, pe.mttr_us, "us",
             bench::PositiveAtMost(2500.0));

  const ChaosRecovery chaos = RunChaosRecovery(seed);
  bench::Row("recovery: path-A rate ratio after chaos", 1.0, chaos.ratio, "x",
             bench::AtLeast(0.95));

  std::printf("  events recovered: token %d, context %d, pentium %d (%d still degraded)\n",
              token.recovered, ctx.recovered, pe.recovered, pe.unrecovered);
  std::printf("  %s\n", chaos.health_line.c_str());
  bench::Note("MTTD = fault to watchdog detection; MTTR = fault to service restored.");
  bench::Note("the ratio row is path-A throughput after the chaos burst ends vs fault-free.");

  // Permanent stalls, post-recovery invariant violations, a dead class, or
  // a row over its budget fail the bench.
  all_ok = all_ok && token.invariants_ok && ctx.invariants_ok && pe.invariants_ok &&
           chaos.invariants_ok;
  all_ok = all_ok && token.recovered > 0 && ctx.recovered > 0 && pe.recovered > 0;

  const int status = bench::EmitJson("fault_chaos");
  return all_ok ? status : 1;
}

// Cluster failover bench: the §6 multi-chassis router under link, fabric,
// and whole-node faults, with the OSPF-lite control plane and federated
// health monitor attached. Reports MTTD/MTTR per cluster fault class (from
// the control plane's ReconvergenceRecords), the survivors' aggregate rate
// after a permanent node crash vs their fault-free baseline, and whether
// cluster-wide invariants (per-node conservation, fabric accounting, no
// blackholes) hold at the end of every scenario. Every scenario runs on
// one thread; the chaos scenario runs again at `--threads=N` (default 4)
// and must reproduce the one-thread run bit for bit. Rows land in
// BENCH_cluster_failover.json, each held to its budget on every run
// (ci/smoke.sh runs a seed matrix).

#include <chrono>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <sstream>

#include "bench/bench_util.h"
#include "src/cluster/cluster_control.h"
#include "src/fault/fault_injector.h"
#include "src/fault/router_invariants.h"
#include "src/health/cluster_health.h"

namespace npr {
namespace {

constexpr int kNodes = 4;
constexpr int kVictim = 3;  // never a traffic source, so survivor rates are clean
constexpr double kRunMs = 20.0;
constexpr double kMeasureFromMs = 10.0;

struct ScenarioResult {
  uint64_t survivor_delivered = 0;  // measure-window deliveries, nodes != victim
  uint64_t victim_delivered = 0;    // measure-window deliveries to the victim
  uint64_t routes_withdrawn = 0;
  uint64_t spf_recomputes = 0;
  uint64_t icmp_originated = 0;
  std::vector<ReconvergenceRecord> records;
  uint64_t open_records = 0;
  uint64_t suspects = 0;
  bool invariants_ok = false;
  std::string report;
  double wall_s = 0;
  std::string fingerprint;  // must match across thread counts
};

struct Scenario {
  int planes = 1;
  FaultPlan plan;  // per-node seeds are derived inside ClusterRouter
  // Direct fault application at a fixed time (empty for injector-driven).
  std::function<void(ClusterControlPlane&, EventQueue&)> faults;
  double disarm_at_ms = 0;  // >0: disarm every injector at this time
};

// 141 Kpps into one source node's external port 0, half the destinations
// behind other nodes — the cluster_scale §6 workload. The pump lives on its
// node's shard and draws from a per-node derived stream, so the workload is
// identical for every thread count.
struct NodePump {
  ClusterRouter* cluster;
  int node;
  Rng rng;
  SimTime gap;
  SimTime stop_at;

  void Tick() {
    EventQueue& eng = cluster->node_engine(node);
    if (eng.now() > stop_at) {
      return;
    }
    int g;
    if (rng.Chance(0.5)) {
      int other;
      do {
        other = static_cast<int>(rng.Uniform(static_cast<uint64_t>(cluster->num_nodes())));
      } while (other == node);
      g = other * cluster->external_ports_per_node() +
          static_cast<int>(
              rng.Uniform(static_cast<uint64_t>(cluster->external_ports_per_node())));
    } else {
      g = node * cluster->external_ports_per_node() + 1 +
          static_cast<int>(
              rng.Uniform(static_cast<uint64_t>(cluster->external_ports_per_node() - 1)));
    }
    PacketSpec spec;
    spec.dst_ip = cluster->ExternalDstIp(g, static_cast<uint16_t>(1 + rng.Uniform(16)));
    // Source inside the node's own port-0 prefix, so shed traffic's ICMP
    // unreachables have a route back to the offender.
    spec.src_ip = cluster->ExternalDstIp(node * cluster->external_ports_per_node(),
                                         static_cast<uint16_t>(200 + node));
    cluster->node(node).port(0).InjectFromWire(BuildPacket(spec));
    eng.ScheduleIn(gap, [this] { Tick(); });
  }
};

ScenarioResult Run(const Scenario& sc, uint64_t seed, int threads) {
  ClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.internal_links = sc.planes;
  cfg.threads = threads;
  cfg.node_config.fault_plan = sc.plan;
  cfg.node_config.fault_plan.seed = seed;
  ClusterRouter cluster(std::move(cfg));
  ClusterControlPlane control(cluster);
  control.Start();
  ClusterHealthMonitor health(cluster, control);
  cluster.Start();

  // Deliveries by destination node, each written only by that node's shard;
  // the hub snapshots them at the measure boundary.
  std::vector<uint64_t> delivered(kNodes, 0);
  std::vector<uint64_t> at_boundary(kNodes, 0);
  for (int k = 0; k < cluster.num_nodes(); ++k) {
    for (int p = 0; p < cluster.external_ports_per_node(); ++p) {
      cluster.node(k).port(p).SetSink([&delivered, k](Packet&& packet) {
        // Count goodput only: ICMP errors shed back at the sources are
        // accounted separately via icmp_originated.
        auto ip = Ipv4Header::Parse(packet.l3());
        if (ip && ip->protocol != kIpProtoIcmp) {
          ++delivered[static_cast<size_t>(k)];
        }
      });
    }
  }
  cluster.engine().ScheduleIn(static_cast<SimTime>(kMeasureFromMs * kPsPerMs),
                              [&] { at_boundary = delivered; });

  const SimTime gap = static_cast<SimTime>(kPsPerSec / 141'000);
  const SimTime stop_at = static_cast<SimTime>((kRunMs - 1.0) * kPsPerMs);
  std::vector<std::unique_ptr<NodePump>> pumps;
  for (int k = 0; k < kNodes; ++k) {
    if (k == kVictim) {
      continue;
    }
    pumps.push_back(std::unique_ptr<NodePump>(new NodePump{
        &cluster, k, Rng(FaultPlan::DeriveNodeSeed(seed ^ 0x7ea5u, k)), gap, stop_at}));
  }
  for (auto& pump : pumps) {
    pump->Tick();
  }

  if (sc.faults) {
    sc.faults(control, cluster.engine());
  }
  if (sc.disarm_at_ms > 0) {
    cluster.engine().ScheduleIn(static_cast<SimTime>(sc.disarm_at_ms * kPsPerMs), [&] {
      for (int k = 0; k < cluster.num_nodes(); ++k) {
        if (FaultInjector* fi = cluster.node(k).fault_injector()) {
          fi->set_armed(false);
        }
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  cluster.RunForMs(kRunMs);
  ScenarioResult r;
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  bench::RecordEvents(cluster.TotalEventsRun());

  for (int k = 0; k < kNodes; ++k) {
    const uint64_t window = delivered[static_cast<size_t>(k)] - at_boundary[static_cast<size_t>(k)];
    if (k == kVictim) {
      r.victim_delivered = window;
    } else {
      r.survivor_delivered += window;
    }
    const RouterStats& stats = cluster.node(k).stats();
    r.routes_withdrawn += stats.routes_withdrawn;
    r.spf_recomputes += stats.spf_recomputes;
    r.icmp_originated += stats.icmp_originated;
  }
  r.records = control.records();
  for (const ReconvergenceRecord& rec : r.records) {
    r.open_records += rec.closed() ? 0 : 1;
  }
  r.suspects = health.suspects_raised();
  const InvariantReport inv = RouterInvariants::CheckCluster(cluster);
  r.invariants_ok = inv.ok();
  r.report = inv.ToString();

  // Everything a reordering bug could perturb: deliveries, per-node stats,
  // the control plane's full record list, health counters, event totals.
  std::ostringstream fp;
  for (int k = 0; k < kNodes; ++k) {
    const RouterStats& stats = cluster.node(k).stats();
    fp << "n" << k << ":d=" << delivered[static_cast<size_t>(k)]
       << ",fwd=" << stats.forwarded << ",icmp=" << stats.icmp_originated
       << ",wd=" << stats.routes_withdrawn << ",spf=" << stats.spf_recomputes << ";";
  }
  for (const ReconvergenceRecord& rec : r.records) {
    fp << "rec(" << static_cast<int>(rec.kind) << "," << rec.node << "," << rec.fault_at
       << "," << rec.detected_at << "," << rec.reconverged_at << ");";
  }
  fp << "susp=" << health.suspects_raised() << ",acked=" << health.probes_acked()
     << ",failed=" << health.probes_failed() << ",ev=" << cluster.TotalEventsRun()
     << ",now=" << cluster.now();
  r.fingerprint = fp.str();
  return r;
}

struct KindStats {
  double mttd_us = 0;
  double mttr_us = 0;
  int closed = 0;
};

KindStats StatsFor(const ScenarioResult& r, ReconvergenceRecord::Kind kind) {
  KindStats s;
  for (const ReconvergenceRecord& rec : r.records) {
    if (rec.kind != kind || !rec.closed()) {
      continue;
    }
    s.closed += 1;
    s.mttd_us += static_cast<double>(rec.mttd_ps()) / kPsPerUs;
    s.mttr_us += static_cast<double>(rec.mttr_ps()) / kPsPerUs;
  }
  if (s.closed > 0) {
    s.mttd_us /= s.closed;
    s.mttr_us /= s.closed;
  }
  return s;
}

}  // namespace
}  // namespace npr

int main(int argc, char** argv) {
  using namespace npr;

  uint64_t seed = 0xfa017ULL;
  int sharded_threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      sharded_threads = std::atoi(argv[i] + 10);
    } else {
      seed = std::strtoull(argv[i], nullptr, 0);
    }
  }
  if (sharded_threads < 2) {
    sharded_threads = 2;
  }
  bench::SetRunInfo(seed, "ClusterChaos");
  bool all_ok = true;
  auto check = [&all_ok](const char* name, const ScenarioResult& r) {
    if (!r.invariants_ok) {
      all_ok = false;
      std::printf("  %s invariants FAIL: %s\n", name, r.report.c_str());
    }
  };

  char title[96];
  std::snprintf(title, sizeof(title),
                "cluster failover: 4 nodes, OSPF-lite + federated health (seed 0x%" PRIx64 ")",
                seed);
  bench::Title(title);
  bench::RowHeader();

  // Fault-free baseline: the survivors' aggregate delivery over the measure
  // window, for the post-crash ratio.
  Scenario base;
  const ScenarioResult baseline = Run(base, seed, 1);
  check("baseline", baseline);
  if (!baseline.records.empty()) {
    all_ok = false;
    std::printf("  baseline: %zu spurious reconvergence record(s)\n", baseline.records.size());
  }

  // Permanent node crash: the victim's prefixes must be withdrawn (shed as
  // ICMP unreachables, not blackholed) while survivor traffic keeps flowing.
  Scenario crash;
  crash.faults = [](ClusterControlPlane& control, EventQueue& engine) {
    engine.ScheduleIn(6 * kPsPerMs,
                      [&control] { control.ApplyNodeCrash(kVictim, FaultInjector::kForever); });
  };
  const ScenarioResult crashed = Run(crash, seed, 1);
  check("node-crash", crashed);
  const KindStats node_down = StatsFor(crashed, ReconvergenceRecord::Kind::kNodeDown);
  // MTTD/MTTR budgets: detection waits on the federated-health probe loop
  // (node crash) or the OSPF-lite dead interval (link down); repair adds
  // flooding and every survivor's SPF re-run; readmission is resync only.
  bench::Row("cluster: node-crash MTTD", 300.0, node_down.mttd_us, "us",
             bench::PositiveAtMost(300.0));
  bench::Row("cluster: node-crash MTTR", 400.0, node_down.mttr_us, "us",
             bench::PositiveAtMost(400.0));
  const double survivor_ratio =
      baseline.survivor_delivered > 0
          ? static_cast<double>(crashed.survivor_delivered) /
                static_cast<double>(baseline.survivor_delivered)
          : 0.0;
  bench::Row("cluster: survivor rate ratio after crash", 1.0, survivor_ratio, "x",
             bench::AtLeast(0.95));
  std::printf("  node-crash: %" PRIu64 " route withdrawals, %" PRIu64
              " ICMP unreachables shed, %" PRIu64 " health suspect(s)\n",
              crashed.routes_withdrawn, crashed.icmp_originated, crashed.suspects);
  all_ok = all_ok && node_down.closed == 1 && crashed.routes_withdrawn > 0 &&
           crashed.victim_delivered == 0 && crashed.suspects >= 1 &&
           crashed.icmp_originated > 0;

  // Link down on one of two planes: reconvergence reroutes through the
  // surviving plane, so the victim's prefixes stay reachable throughout.
  Scenario link;
  link.planes = 2;
  link.faults = [](ClusterControlPlane& control, EventQueue& engine) {
    engine.ScheduleIn(6 * kPsPerMs,
                      [&control] { control.ApplyLinkDown(kVictim, 0, 8 * kPsPerMs); });
  };
  const ScenarioResult linkdown = Run(link, seed, 1);
  check("link-down", linkdown);
  const KindStats link_stats = StatsFor(linkdown, ReconvergenceRecord::Kind::kLinkDown);
  bench::Row("cluster: link-down MTTD", 450.0, link_stats.mttd_us, "us",
             bench::PositiveAtMost(450.0));
  bench::Row("cluster: link-down MTTR", 500.0, link_stats.mttr_us, "us",
             bench::PositiveAtMost(500.0));
  const double link_ratio =
      baseline.victim_delivered > 0 ? static_cast<double>(linkdown.victim_delivered) /
                                          static_cast<double>(baseline.victim_delivered)
                                    : 0.0;
  bench::Row("cluster: victim rate ratio during link-down", 1.0, link_ratio, "x",
             bench::AtLeast(0.95));
  all_ok = all_ok && link_stats.closed == 1;

  // Finite crash and warm-restart readmission: the node comes back, floods a
  // bumped self-LSA, gets a database resync, and survivors re-install its
  // routes — MTTR measured from the restart.
  Scenario readmit;
  readmit.faults = [](ClusterControlPlane& control, EventQueue& engine) {
    engine.ScheduleIn(4 * kPsPerMs,
                      [&control] { control.ApplyNodeCrash(kVictim, 3 * kPsPerMs); });
  };
  const ScenarioResult readmitted = Run(readmit, seed, 1);
  check("readmit", readmitted);
  const KindStats readmit_stats = StatsFor(readmitted, ReconvergenceRecord::Kind::kNodeReadmit);
  bench::Row("cluster: readmit MTTR", 300.0, readmit_stats.mttr_us, "us",
             bench::PositiveAtMost(300.0));
  all_ok = all_ok && readmit_stats.closed == 1 && readmitted.victim_delivered > 0;

  // Fabric frame loss: random drops degrade delivery slightly but must not
  // flap adjacencies or break accounting.
  Scenario loss;
  loss.plan.fabric_loss_p = 0.005;
  const ScenarioResult lossy = Run(loss, seed, 1);
  check("fabric-loss", lossy);
  const uint64_t base_total = baseline.survivor_delivered + baseline.victim_delivered;
  const uint64_t lossy_total = lossy.survivor_delivered + lossy.victim_delivered;
  const double loss_ratio =
      base_total > 0 ? static_cast<double>(lossy_total) / static_cast<double>(base_total) : 0.0;
  bench::Row("cluster: fabric-loss delivery ratio", 1.0, loss_ratio, "x", bench::AtLeast(0.95));
  all_ok = all_ok && lossy.records.empty();

  // Injector-driven chaos: every cluster fault class drawn from the derived
  // per-node streams, disarmed mid-run so the tail is pure recovery. Run at
  // t=1 and t=N: the two must produce bit-identical fingerprints (traffic,
  // stats, reconvergence records, health counters) — a reordering bug
  // anywhere in the window barrier shows up here as a divergence, and fails
  // the bench.
  Scenario chaos;
  chaos.planes = 2;
  chaos.plan = FaultPlan::ClusterChaos(seed);
  chaos.disarm_at_ms = 12.0;
  const ScenarioResult chaotic = Run(chaos, seed, 1);
  check("chaos", chaotic);
  bench::Row("cluster: chaos open records at end", 0.0,
             static_cast<double>(chaotic.open_records), "rec", bench::Exactly(0.0));
  std::printf(
      "  chaos: %zu reconvergence record(s), %" PRIu64 " spf re-runs, %" PRIu64
      " route withdrawals, %" PRIu64 " ICMP unreachables\n",
      chaotic.records.size(), chaotic.spf_recomputes, chaotic.routes_withdrawn,
      chaotic.icmp_originated);

  const ScenarioResult parallel = Run(chaos, seed, sharded_threads);
  check("chaos (parallel)", parallel);
  const bool sharded_deterministic = chaotic.fingerprint == parallel.fingerprint;
  if (!sharded_deterministic) {
    std::printf("  sharded chaos DIVERGENCE:\n    t=1: %s\n    t=%d: %s\n",
                chaotic.fingerprint.c_str(), sharded_threads, parallel.fingerprint.c_str());
  }
  all_ok = all_ok && parallel.open_records == 0;
  bench::Row("cluster: sharded chaos wall t=1", 0.0, chaotic.wall_s, "s");
  char sharded_label[64];
  std::snprintf(sharded_label, sizeof(sharded_label), "cluster: sharded chaos wall t=%d",
                sharded_threads);
  bench::Row(sharded_label, 0.0, parallel.wall_s, "s");
  bench::Row("cluster: sharded chaos speedup", 0.0,
             parallel.wall_s > 0 ? chaotic.wall_s / parallel.wall_s : 0.0, "x");
  bench::Row("cluster: sharded chaos deterministic", 1.0,
             sharded_deterministic ? 1.0 : 0.0, "bool", bench::Exactly(1.0));

  bench::Note("MTTD = fault to first dead-interval declaration; MTTR = fault to the");
  bench::Note("last surviving node's SPF re-run. The survivor ratio compares the three");
  bench::Note("surviving nodes' measure-window deliveries against their fault-free run;");
  bench::Note("a row outside its budget fails the run; ci/smoke.sh runs three seeds.");

  const int status = bench::EmitJson("cluster_failover");
  return all_ok ? status : 1;
}

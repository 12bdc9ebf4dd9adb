// §6 (future work, built here): scaling the router to four Pentium/IXP
// pairs joined by a gigabit switch. Measures aggregate external goodput as
// the remote-traffic share grows — the paper's stated concern being that
// the internal link consumes RI capacity that would otherwise feed the VRP.
//
// A second section runs an 8-node cluster at several thread counts: same
// workload per thread count, wall-clock and speedup rows, and a fingerprint
// check that every run is bit-identical. Both sections use one runner (one
// engine per node, 2 µs fabric latency; docs/perf.md, "Sharded cluster
// simulation"). `--threads=N` caps the thread ladder (default 8); the
// speedup row is held to a floor when the host has a core for every thread
// (ci/smoke.sh passes the host's core count, capped at 8).

#include <sched.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "bench/bench_util.h"
#include "src/cluster/cluster_router.h"
#include "src/fault/fault_plan.h"

namespace npr {
namespace {

// One traffic source per node, living on that node's shard and drawing
// from a per-node derived stream, so the workload is identical for every
// thread count (a shared Rng would be a data race under threads > 1, and
// its draw order would depend on the interleaving).
struct NodePump {
  ClusterRouter* cluster = nullptr;
  int node = 0;
  Rng rng{0};
  double remote_fraction = 0;
  SimTime gap = 0;
  SimTime stop_at = 0;
  uint64_t sent = 0;

  void Tick() {
    EventQueue& eng = cluster->node_engine(node);
    if (eng.now() > stop_at) {
      return;
    }
    int g;
    if (rng.Chance(remote_fraction)) {
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
    spec.src_ip = SrcIpForPort(static_cast<uint8_t>(node), 1);
    cluster->node(node).port(0).InjectFromWire(BuildPacket(spec));
    ++sent;
    eng.ScheduleIn(gap, [this] { Tick(); });
  }
};

struct ClusterRun {
  double wall_s = 0;
  double goodput_kpps = 0;
  uint64_t fabric_frames = 0;
  uint64_t drops = 0;
  std::string fingerprint;  // must match across thread counts
};

ClusterRun Run(int nodes, int threads, double remote_fraction, double warm_ms,
               double measure_ms) {
  constexpr uint64_t kSeed = 0x5ca1edULL;

  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.threads = threads;
  ClusterRouter cluster(std::move(cfg));
  cluster.InstallClusterRoutes();

  // Per-destination-node delivery counters: each is written only by that
  // node's shard, so no locking is needed.
  std::vector<uint64_t> delivered(static_cast<size_t>(nodes), 0);
  for (int k = 0; k < cluster.num_nodes(); ++k) {
    for (int p = 0; p < cluster.external_ports_per_node(); ++p) {
      cluster.node(k).port(p).SetSink(
          [&delivered, k](Packet&&) { ++delivered[static_cast<size_t>(k)]; });
    }
  }
  cluster.Start();

  const SimTime gap = static_cast<SimTime>(kPsPerSec / 141'000);
  const SimTime stop_at = static_cast<SimTime>((warm_ms + measure_ms) * kPsPerMs);
  std::vector<std::unique_ptr<NodePump>> pumps;
  for (int k = 0; k < nodes; ++k) {
    auto pump = std::make_unique<NodePump>();
    pump->cluster = &cluster;
    pump->node = k;
    pump->rng = Rng(FaultPlan::DeriveNodeSeed(kSeed, k));
    pump->remote_fraction = remote_fraction;
    pump->gap = gap;
    pump->stop_at = stop_at;
    pumps.push_back(std::move(pump));
  }
  for (auto& pump : pumps) {
    pump->Tick();
  }

  cluster.RunForMs(warm_ms);
  const std::vector<uint64_t> at_boundary = delivered;
  const auto t0 = std::chrono::steady_clock::now();
  cluster.RunForMs(measure_ms);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  bench::RecordEvents(cluster.TotalEventsRun());

  ClusterRun run;
  run.wall_s = wall;
  uint64_t window = 0;
  for (int k = 0; k < nodes; ++k) {
    window += delivered[static_cast<size_t>(k)] - at_boundary[static_cast<size_t>(k)];
  }
  run.goodput_kpps = static_cast<double>(window) / (measure_ms / 1e3) / 1e3;
  run.fabric_frames = cluster.fabric().forwarded();
  run.drops = cluster.TotalDrops();

  // Everything that could diverge under a reordering bug: per-node
  // deliveries and injections, fabric accounting, the global event count,
  // and the final clock.
  std::ostringstream fp;
  for (int k = 0; k < nodes; ++k) {
    fp << "n" << k << ":d=" << delivered[static_cast<size_t>(k)]
       << ",s=" << pumps[static_cast<size_t>(k)]->sent
       << ",fwd=" << cluster.node(k).stats().forwarded << ";";
  }
  fp << "fab=" << run.fabric_frames << ",drops=" << run.drops
     << ",ev=" << cluster.TotalEventsRun() << ",now=" << cluster.now();
  run.fingerprint = fp.str();
  return run;
}

// Cores this process may run on, as nproc reports them.
int HostCores() {
  cpu_set_t set;
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
}

}  // namespace
}  // namespace npr

int main(int argc, char** argv) {
  using namespace npr;
  using namespace npr::bench;

  Title("§6 extension — 4-node cluster, 4 x 141 Kpps offered, varying remote share");
  std::printf("%14s %16s %16s %10s\n", "remote share", "goodput (Kpps)", "fabric frames",
              "drops");
  for (double f : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const ClusterRun run = Run(4, 1, f, /*warm_ms=*/4.0, /*measure_ms=*/20.0);
    std::printf("%14.2f %16.1f %16llu %10llu\n", f, run.goodput_kpps,
                static_cast<unsigned long long>(run.fabric_frames),
                static_cast<unsigned long long>(run.drops));
  }
  Note("offered aggregate is 564 Kpps of 64 B packets; remote packets cross the");
  Note("gigabit fabric and are forwarded at both the ingress and egress node,");
  Note("doubling their pipeline cost — goodput should hold with zero drops, the");
  Note("paper's premise for the multi-chassis design (§6).");

  // --- 8 nodes, 2 µs fabric, thread ladder ---
  int max_threads = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      max_threads = std::atoi(argv[i] + 10);
    }
  }
  if (max_threads < 1) {
    max_threads = 1;
  }
  std::vector<int> ladder;
  for (int t : {1, 2, 4, 8}) {
    if (t <= max_threads) {
      ladder.push_back(t);
    }
  }
  if (ladder.back() != max_threads) {
    ladder.push_back(max_threads);
  }

  Title("sharded engine — 8-node cluster, 2 us fabric latency, 50% remote share");
  std::printf("%10s %12s %16s %14s\n", "threads", "wall (s)", "goodput (Kpps)", "speedup");
  bool deterministic = true;
  double wall_t1 = 0;
  double wall_last = 0;
  std::string fingerprint_t1;
  for (int t : ladder) {
    const ClusterRun run = Run(8, t, 0.5, /*warm_ms=*/2.0, /*measure_ms=*/8.0);
    if (t == 1) {
      wall_t1 = run.wall_s;
      fingerprint_t1 = run.fingerprint;
    } else if (run.fingerprint != fingerprint_t1) {
      deterministic = false;
      std::printf("  DIVERGENCE at t=%d:\n    t=1: %s\n    t=%d: %s\n", t,
                  fingerprint_t1.c_str(), t, run.fingerprint.c_str());
    }
    wall_last = run.wall_s;
    std::printf("%10d %12.3f %16.1f %13.2fx\n", t, run.wall_s, run.goodput_kpps,
                wall_t1 > 0 ? wall_t1 / run.wall_s : 0.0);
    char label[64];
    std::snprintf(label, sizeof(label), "sharded wall t=%d", t);
    Row(label, 0, run.wall_s, "s");
    if (t == 1) {
      Row("sharded goodput", 0, run.goodput_kpps, "Kpps");
    }
  }
  // Speedup floor, only when the host has a core per thread: oversubscribed
  // workers show determinism, not speedup. The barrier ending every 2 us
  // window (not the hub, ~0.5% of the events) caps the speedup, so 8+
  // threads must land 3x (the docs/perf.md target), 2-7 half their count.
  const int top = ladder.back();
  const Bound speedup_floor =
      top >= 2 && top <= HostCores() ? AtLeast(top >= 8 ? 3.0 : top / 2.0) : Bound{};
  Row("sharded threads", 0, static_cast<double>(top), "thr");
  Row("sharded speedup", 0, wall_last > 0 ? wall_t1 / wall_last : 0.0, "x", speedup_floor);
  Row("sharded deterministic", 1.0, deterministic ? 1.0 : 0.0, "bool", Exactly(1.0));
  Note("the speedup row compares the largest thread count against t=1 on the");
  Note("same sharded configuration; the deterministic row is 1 only if every");
  Note("thread count produced a bit-identical run fingerprint.");

  return bench::EmitJson("cluster_scale");
}

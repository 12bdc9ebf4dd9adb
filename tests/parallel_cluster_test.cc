// Sharded cluster simulation (conservative lookahead): ShardPool/ShardGroup
// unit tests, sharded-cluster smoke, the parallel-vs-sequential bit-identity
// matrix across seeds × fault plans, and the lookahead-violation check.
//
// Every suite is prefixed ParallelCluster so ci/sanitize.sh can run exactly
// this file under ThreadSanitizer (-R ParallelCluster).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <vector>

#include "src/cluster/cluster_control.h"
#include "src/fault/fault_plan.h"
#include "src/fault/router_invariants.h"
#include "src/health/cluster_health.h"
#include "src/health/health_monitor.h"
#include "src/obs/observer.h"
#include "src/sim/random.h"
#include "src/sim/shard_group.h"

namespace npr {
namespace {

// --- ShardPool ----------------------------------------------------------

TEST(ParallelClusterPool, RunsEveryIndexExactlyOnceAndIsReusable) {
  for (int threads : {1, 2, 4}) {
    ShardPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    for (int round = 0; round < 64; ++round) {
      std::vector<std::atomic<int>> hits(33);
      pool.Run(33, [&hits](int i) { hits[static_cast<size_t>(i)].fetch_add(1); });
      for (size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " round=" << round
                                     << " index=" << i;
      }
    }
  }
}

TEST(ParallelClusterPool, HandlesMoreWorkThanThreadsAndEmptyRuns) {
  ShardPool pool(3);
  pool.Run(0, [](int) { FAIL() << "no indices to run"; });
  std::atomic<int> sum{0};
  pool.Run(100, [&sum](int i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

// --- ShardGroup ---------------------------------------------------------

// A self-rescheduling per-queue ticker; shard events touch only their own
// queue's state, as the sharding contract requires.
struct Ticker {
  EventQueue* q = nullptr;
  SimTime period = 0;
  SimTime stop = 0;
  uint64_t count = 0;

  void Start() {
    q->ScheduleIn(period, [this] { Tick(); });
  }
  void Tick() {
    ++count;
    if (q->now() + period <= stop) {
      q->ScheduleIn(period, [this] { Tick(); });
    }
  }
};

TEST(ParallelClusterGroup, WindowedRunAdvancesEveryClockAndCountsEvents) {
  for (int threads : {1, 2}) {
    EventQueue hub;
    EventQueue a;
    EventQueue b;
    ShardGroup group(&hub, {&a, &b}, 1000, threads);

    Ticker ha{&hub, 250, 10'000};
    Ticker ta{&a, 100, 10'000};
    Ticker tb{&b, 170, 10'000};
    ha.Start();
    ta.Start();
    tb.Start();
    group.RunUntil(10'000);

    EXPECT_EQ(group.now(), 10'000);
    EXPECT_EQ(hub.now(), 10'000);
    EXPECT_EQ(a.now(), 10'000);
    EXPECT_EQ(b.now(), 10'000);
    EXPECT_EQ(group.windows_run(), 10u);
    EXPECT_EQ(ha.count, 40u) << "threads=" << threads;
    EXPECT_EQ(ta.count, 100u);
    EXPECT_EQ(tb.count, 58u);
    EXPECT_EQ(group.events_run(), hub.events_run() + a.events_run() + b.events_run());
  }
}

TEST(ParallelClusterGroup, MergeHookRunsOncePerWindowBeforeTheHubPhase) {
  EventQueue hub;
  EventQueue shard;
  ShardGroup group(&hub, {&shard}, 500, 1);
  std::vector<SimTime> window_starts;
  group.set_merge_hook([&](SimTime window_start) {
    // The hook sees the hub still parked at the window start.
    EXPECT_EQ(hub.now(), window_start);
    window_starts.push_back(window_start);
  });
  group.RunUntil(2'000);
  ASSERT_EQ(window_starts.size(), 4u);
  EXPECT_EQ(window_starts, (std::vector<SimTime>{0, 500, 1000, 1500}));
  // A partial final window is clamped to the requested end time.
  group.RunUntil(2'200);
  EXPECT_EQ(window_starts.back(), 2'000);
  EXPECT_EQ(group.now(), 2'200);
  EXPECT_EQ(shard.now(), 2'200);
}

TEST(ParallelClusterGroup, HubPhaseMaySeedShardsWithinTheWindow) {
  // The hub schedules work into a shard for the same window — legal because
  // shards still sit at the window start during the hub phase. This is how
  // deferred fabric delivery lands frames on the destination shard.
  EventQueue hub;
  EventQueue shard;
  ShardGroup group(&hub, {&shard}, 1000, 2);
  uint64_t shard_ran_at = 0;
  hub.Schedule(1'500, [&] {
    shard.Schedule(1'500, [&] { shard_ran_at = shard.now(); });
  });
  group.RunUntil(3'000);
  EXPECT_EQ(shard_ran_at, 1'500u);
}

// --- sharded cluster smoke ---------------------------------------------

TEST(ParallelClusterSmoke, CrossNodeFrameArrivesWithFabricLatency) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.fabric_latency_ps = 2 * kPsPerUs;
  ClusterRouter cluster(std::move(cfg));
  cluster.InstallClusterRoutes();

  std::vector<uint64_t> delivered(static_cast<size_t>(cluster.num_nodes()), 0);
  for (int k = 0; k < cluster.num_nodes(); ++k) {
    for (int p = 0; p < cluster.external_ports_per_node(); ++p) {
      cluster.node(k).port(p).SetSink([&delivered, k](Packet&&) { ++delivered[static_cast<size_t>(k)]; });
    }
  }
  cluster.Start();

  // Node 0 port 0 takes a packet for a prefix behind node 1.
  PacketSpec spec;
  spec.dst_ip = cluster.ExternalDstIp(1 * cluster.external_ports_per_node() + 3, 1);
  spec.src_ip = cluster.ExternalDstIp(0, 200);
  cluster.node(0).port(0).InjectFromWire(BuildPacket(spec));

  cluster.RunForMs(2.0);
  EXPECT_EQ(delivered[1], 1u) << "cross-node packet must arrive through the mailbox path";
  EXPECT_EQ(cluster.fabric().forwarded(), 1u);
  EXPECT_GT(cluster.TotalEventsRun(), 0u);
  EXPECT_EQ(cluster.now(), 2 * kPsPerMs);

  const InvariantReport report = RouterInvariants::CheckCluster(cluster);
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

// --- determinism matrix -------------------------------------------------

std::string RenderSpan(const SpanRecord& r) {
  char line[96];
  std::snprintf(line, sizeof(line), "%llu %s u%02x a%u p%u",
                static_cast<unsigned long long>(r.t_ps),
                SpanPointName(static_cast<SpanPoint>(r.point)), r.unit, r.arg, r.packet_id);
  return std::string(line);
}

// One deterministic per-node traffic source living on that node's shard.
struct NodePump {
  ClusterRouter* cluster = nullptr;
  int node = 0;
  Rng rng{1};
  SimTime gap = 0;
  SimTime stop = 0;
  uint32_t next_id = 1;

  void Start() { cluster->node_engine(node).ScheduleIn(gap, [this] { Tick(); }); }
  void Tick() {
    // Remote destinations half the time: plenty of mailbox traffic.
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
    spec.src_ip = cluster->ExternalDstIp(node * cluster->external_ports_per_node(), 200);
    Packet packet = BuildPacket(spec);
    packet.set_id((static_cast<uint32_t>(node) << 24) | next_id++);
    cluster->node(node).port(0).InjectFromWire(std::move(packet));
    if (cluster->node_engine(node).now() + gap <= stop) {
      cluster->node_engine(node).ScheduleIn(gap, [this] { Tick(); });
    }
  }
};

// Runs a fully-loaded sharded cluster (control plane, federated + intra-node
// health, observers, per-node pumps, fault plan) and fingerprints everything
// observable: stats, fabric accounting, control traces, recovery events,
// span traces, event counts. Bit-identity of this string across `threads`
// values is the tentpole's determinism guarantee.
std::string RunFingerprint(uint64_t seed, const FaultPlan& plan, int threads) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.internal_links = 2;
  cfg.fabric_latency_ps = 2 * kPsPerUs;
  cfg.threads = threads;
  cfg.node_config.fault_plan = plan;
  ClusterRouter cluster(std::move(cfg));

  ClusterControlPlane control(cluster);
  control.Start();
  ClusterHealthMonitor health(cluster, control);

  std::vector<std::unique_ptr<HealthMonitor>> monitors;
  std::vector<std::unique_ptr<Observer>> observers;
  std::vector<std::vector<uint64_t>> delivered(
      static_cast<size_t>(cluster.num_nodes()),
      std::vector<uint64_t>(static_cast<size_t>(cluster.external_ports_per_node()), 0));
  for (int k = 0; k < cluster.num_nodes(); ++k) {
    // Intra-node recovery runs on the node's own shard (HealthMonitor
    // schedules on router.engine()); observers are per-shard too, merged
    // into the fingerprint at fold time below.
    monitors.push_back(std::make_unique<HealthMonitor>(cluster.node(k)));
    ObserverConfig oc;
    oc.capture_reserve = 1 << 15;
    observers.push_back(std::make_unique<Observer>(cluster.node_engine(k), oc));
    cluster.node(k).SetObserver(observers.back().get());
    for (int p = 0; p < cluster.external_ports_per_node(); ++p) {
      cluster.node(k).port(p).SetSink([&delivered, k, p](Packet&&) {
        ++delivered[static_cast<size_t>(k)][static_cast<size_t>(p)];
      });
    }
  }
  cluster.Start();

  std::vector<std::unique_ptr<NodePump>> pumps;
  for (int k = 0; k < cluster.num_nodes(); ++k) {
    auto pump = std::make_unique<NodePump>();
    pump->cluster = &cluster;
    pump->node = k;
    pump->rng = Rng(FaultPlan::DeriveNodeSeed(seed, k));
    pump->gap = static_cast<SimTime>(kPsPerSec / 141'000);
    pump->stop = 3 * kPsPerMs;
    pump->Start();
    pumps.push_back(std::move(pump));
  }

  cluster.RunForMs(4.0);

  std::ostringstream out;
  out << "events=" << cluster.TotalEventsRun() << " now=" << cluster.now() << "\n";
  for (int plane = 0; plane < cluster.num_planes(); ++plane) {
    const SwitchFabric& fab = cluster.fabric(plane);
    out << "plane " << plane << " fwd=" << fab.forwarded() << " gate=" << fab.gate_dropped()
        << " unknown=" << fab.unknown_destination() << "\n";
  }
  for (int k = 0; k < cluster.num_nodes(); ++k) {
    const RouterStats& st = cluster.node(k).stats();
    out << "node " << k << " fwd=" << st.forwarded << " qdrop=" << st.dropped_queue_full
        << " icmp=" << st.icmp_originated << " ctrl_to=" << st.ctrl_timeouts
        << " watchdog=" << st.watchdog_fired << " tokregen=" << st.tokens_regenerated
        << " deliveries=";
    for (uint64_t d : delivered[static_cast<size_t>(k)]) {
      out << d << ",";
    }
    out << "\n";
  }
  for (const std::string& line : control.trace()) {
    out << "ctl " << line << "\n";
  }
  for (const RecoveryEvent& ev : health.events()) {
    out << "ev k=" << static_cast<int>(ev.kind) << " f=" << ev.fault_at
        << " d=" << ev.detected_at << " r=" << ev.recovered_at << "\n";
  }
  for (int k = 0; k < cluster.num_nodes(); ++k) {
    for (const RecoveryEvent& ev : monitors[static_cast<size_t>(k)]->events()) {
      out << "nodeev " << k << " k=" << static_cast<int>(ev.kind) << " f=" << ev.fault_at
          << " d=" << ev.detected_at << " r=" << ev.recovered_at << "\n";
    }
  }
  for (int k = 0; k < cluster.num_nodes(); ++k) {
    const Observer& obs = *observers[static_cast<size_t>(k)];
    out << "spans " << k << " n=" << obs.records() << "\n";
    for (const SpanRecord& r : obs.capture()) {
      out << "s" << k << " " << RenderSpan(r) << "\n";
    }
  }
  return out.str();
}

TEST(ParallelClusterDeterminism, ParallelEqualsSequentialAcrossSeedAndPlanMatrix) {
  struct PlanCase {
    const char* name;
    FaultPlan (*make)(uint64_t seed);
  };
  const PlanCase cases[] = {
      {"NoFaults", [](uint64_t seed) {
         FaultPlan plan;
         plan.seed = seed;
         return plan;
       }},
      {"RecoveryChaos", [](uint64_t seed) { return FaultPlan::RecoveryChaos(seed); }},
      {"ClusterChaos", [](uint64_t seed) { return FaultPlan::ClusterChaos(seed); }},
  };
  for (const uint64_t seed : {0xfa017ULL, 0x5eed1ULL}) {
    for (const PlanCase& pc : cases) {
      const std::string seq = RunFingerprint(seed, pc.make(seed), 1);
      const std::string par = RunFingerprint(seed, pc.make(seed), 4);
      ASSERT_FALSE(seq.empty());
      // EXPECT_EQ on the full strings would print megabytes on failure;
      // compare and report a compact diff position instead.
      if (seq != par) {
        size_t pos = 0;
        while (pos < seq.size() && pos < par.size() && seq[pos] == par[pos]) {
          ++pos;
        }
        FAIL() << "plan=" << pc.name << " seed=" << seed
               << ": parallel diverges from sequential at byte " << pos << ":\n  seq: ..."
               << seq.substr(pos > 60 ? pos - 60 : 0, 120) << "\n  par: ..."
               << par.substr(pos > 60 ? pos - 60 : 0, 120);
      }
    }
  }
}

TEST(ParallelClusterDeterminism, DifferentSeedsDiverge) {
  FaultPlan a;
  a.seed = 1;
  FaultPlan b;
  b.seed = 2;
  EXPECT_NE(RunFingerprint(0xfa017ULL, a, 2), RunFingerprint(0x5eed1ULL, b, 2));
}

// --- lookahead violation ------------------------------------------------

TEST(ParallelClusterLookahead, WindowWiderThanFabricLatencyFailsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto run = [] {
    ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.fabric_latency_ps = 2 * kPsPerUs;
    cfg.window_ps = 8 * kPsPerUs;  // 4x the lookahead: frames land mid-window
    cfg.threads = 1;               // single-threaded so the death is fork-safe
    ClusterRouter cluster(std::move(cfg));
    cluster.InstallClusterRoutes();
    cluster.Start();
    // Enough cross-node traffic that some frame is transmitted early in a
    // window and therefore due before the next one starts.
    for (uint16_t i = 0; i < 32; ++i) {
      PacketSpec spec;
      spec.dst_ip = cluster.ExternalDstIp(1 * cluster.external_ports_per_node() + 1, 1 + i % 8);
      spec.src_ip = cluster.ExternalDstIp(0, 200);
      cluster.node(0).port(0).InjectFromWire(BuildPacket(spec));
    }
    cluster.RunForMs(1.0);
  };
  EXPECT_DEATH(run(), "lookahead violation");
}

TEST(ParallelClusterLookahead, ZeroFabricLatencyIsRefused) {
  // A fabric that delivers instantly leaves no lookahead to window on, so
  // there is no correct way to run the nodes apart: construction aborts.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.fabric_latency_ps = 0;
  EXPECT_DEATH({ ClusterRouter cluster(cfg); }, "window must be positive");
}

}  // namespace
}  // namespace npr

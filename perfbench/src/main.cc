// npr_perfbench: the end-to-end and per-layer benchmark for the npr router
// simulator.
//
//   npr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <file>]
//
// Repeats one workload, each repetition a fixed amount of simulated work,
// until --seconds of wall time have passed, and checks every repetition.
// --trace 0 reports the end-to-end metrics; --trace 1 interleaves traced
// repetitions (spans around every call into the simulator, with counter
// deltas) with untraced ones and reports the per-layer ledger. The last
// stdout line is the JSON result.

#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/layer_timings.h"
#include "perfbench/src/workloads.h"

namespace npr::bench {
uint64_t AllocCount();  // bench/alloc_count.cc
}  // namespace npr::bench

namespace perfbench {
namespace {

#ifndef NPR_PERFBENCH_BUILD_TYPE
#define NPR_PERFBENCH_BUILD_TYPE "unknown"
#endif

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

// Whether the operator-new interposer is live. Explicit operator new calls
// are never elided, so the counter must move if counting is compiled in.
bool AllocCountingLive() {
  const uint64_t before = npr::bench::AllocCount();
  void* p = ::operator new(16);
  ::operator delete(p);
  return npr::bench::AllocCount() > before;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h = (h ^ c) * 1099511628211ULL;
  }
  return h;
}

// Timed slices per chunk of the end-to-end timings (see FastChunkSum): 2 per
// table1 case, 20 on cluster8, 1 or 2 elsewhere.
constexpr int kChunkSlices = 50;

// One repetition of the workload: all its cases, setup to drain.
struct Rep {
  bool traced = false;
  double setup_s = 0;
  double phase_s[4] = {};  // construct, routes, install, start
  uint64_t setup_allocs = 0;
  double wall_s = 0;  // timed phase only
  double cpu_s = 0;
  // Wall and CPU seconds of every chunk of kChunkSlices timed slices, in
  // order (all cases; a case's last chunk may be shorter).
  std::vector<double> chunk_wall_s;
  std::vector<double> chunk_cpu_s;
  // Wall seconds of every timed slice, in order (all cases).
  std::vector<double> slice_wall_s;
  uint64_t steady_allocs = 0;
  Counters timed;  // timed-phase deltas, summed over cases
  Counters end;    // cumulative counters after the drain, summed over cases
  double me_avail_cycles = 0;
  double sa_avail_cycles = 0;
  uint64_t idle_slices = 0;
  uint64_t failed = 0;
  std::string check;  // "" when every case passed
  std::string digest;

  double pkts_per_s() const {
    return wall_s > 0 ? static_cast<double>(timed.finished) / wall_s : 0.0;
  }
  // The timed phase's slices alone, without the loop and any tracing.
  double slices_s() const {
    double sum = 0;
    for (double s : slice_wall_s) {
      sum += s;
    }
    return sum;
  }
};

Counters ReadCase(void* ctx) { return static_cast<Case*>(ctx)->Read(); }

Rep RunRep(const Args& args, int threads, Tracer& tracer, int rep_index, LayerInputs* inputs) {
  Rep rep;
  rep.traced = tracer.on();
  tracer.set_rep(rep_index);
  for (std::unique_ptr<Case>& c : MakeCases(args.workload, args.seed, threads)) {
    Tracer::Scope case_span(tracer, c->name());
    const char* const kPhases[4] = {"construct", "routes", "install", "start"};
    const uint64_t setup_allocs0 = npr::bench::AllocCount();
    double t = WallNow();
    const double setup0 = t;
    for (int phase = 0; phase < 4; ++phase) {
      {
        Tracer::Scope span(tracer, kPhases[phase]);
        switch (phase) {
          case 0:
            c->Construct();
            break;
          case 1:
            c->Routes();
            break;
          case 2:
            c->Install();
            break;
          default:
            c->Start();
            break;
        }
      }
      if (phase == 0) {
        tracer.set_source(&ReadCase, c.get());
      }
      const double now = WallNow();
      rep.phase_s[phase] += now - t;
      t = now;
    }
    rep.setup_s += t - setup0;
    rep.setup_allocs += npr::bench::AllocCount() - setup_allocs0;
    {
      Tracer::Scope span(tracer, "warm");
      c->Warm();
    }

    const int slices = c->slices();
    rep.slice_wall_s.reserve(rep.slice_wall_s.size() + static_cast<size_t>(slices));
    const Counters before = c->Read();
    const uint64_t allocs0 = npr::bench::AllocCount();
    const double cpu0 = CpuNow();
    const double wall0 = WallNow();
    {
      Tracer::Scope timed(tracer, "timed");
      double chunk_wall0 = wall0;
      double chunk_cpu0 = cpu0;
      for (int i = 0; i < slices; ++i) {
        {
          Tracer::Scope span(tracer, "slice");
          const double slice_wall0 = WallNow();
          c->Slice();
          rep.slice_wall_s.push_back(WallNow() - slice_wall0);
        }
        if ((i + 1) % kChunkSlices == 0 || i + 1 == slices) {
          const double wall = WallNow();
          const double cpu = CpuNow();
          rep.chunk_wall_s.push_back(wall - chunk_wall0);
          rep.chunk_cpu_s.push_back(cpu - chunk_cpu0);
          chunk_wall0 = wall;
          chunk_cpu0 = cpu;
        }
      }
    }
    const double wall1 = WallNow();
    const double cpu1 = CpuNow();
    rep.steady_allocs += npr::bench::AllocCount() - allocs0;
    const Counters delta = c->Read().Minus(before);
    rep.wall_s += wall1 - wall0;
    rep.cpu_s += cpu1 - cpu0;
    rep.timed.Add(delta);
    rep.me_avail_cycles += static_cast<double>(delta.num_mes) * static_cast<double>(delta.now) /
                           static_cast<double>(npr::kIxpClock.cycle_ps);
    rep.sa_avail_cycles += static_cast<double>(delta.num_sas) * static_cast<double>(delta.now) /
                           static_cast<double>(npr::kIxpClock.cycle_ps);

    {
      Tracer::Scope span(tracer, "drain");
      c->Drain();
    }
    {
      Tracer::Scope span(tracer, "check");
      const std::string why = c->Check();
      const Counters end = c->Read();
      rep.end.Add(end);
      if (why.empty()) {
        rep.failed += c->Unaccounted();
      } else {
        rep.check += std::string(c->name()) + ": " + why + "; ";
        rep.failed += end.offered;  // every packet of a failed repetition
      }
      rep.digest += std::string(c->name()) + "{" + c->Digest() + "} ";
      if (inputs != nullptr) {
        c->Inputs(inputs);
      }
    }
    tracer.set_source(nullptr, nullptr);
    Tracer::Scope span(tracer, "teardown");
    c.reset();
  }
  if (rep.traced) {
    for (const SpanRec& s : tracer.spans()) {
      if (s.rep == rep_index && std::strcmp(s.name, "slice") == 0 && s.delta.events == 0) {
        ++rep.idle_slices;
      }
    }
  }
  return rep;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// "name: median=... pXX=... n=..." for a host timing. The tail is the
// percentile with at least ten samples beyond it on the bad side (the low
// side when `low_is_bad`), shown once there are enough samples for it to lie
// beyond the median.
void PrintTiming(const char* name, const std::vector<double>& v, const char* unit,
                 bool low_is_bad) {
  const int tail = TailPercentile(v.size());
  std::printf("%-16s median=%.6g %s", name, Median(v), unit);
  if (tail >= 50) {
    const int q = low_is_bad ? 100 - tail : tail;
    std::printf("  p%d=%.6g %s", q, Percentile(v, q), unit);
  }
  std::printf("  n=%zu\n", v.size());
}

// On a shared host the same work runs at one of two speeds as other tenants
// come and go, the slow one about two thirds of the fast, each held for a
// few seconds at a time; the share of time spent in each drifts over
// minutes. Medians and totals follow that share. So pkts_per_s and
// cpu_s_per_mpkt charge each chunk of the timed phase at its fast decile
// across the run's repetitions: every repetition runs the same seed, so a
// chunk is the same simulated work in all of them, and its fast copies follow
// the program. A chunk (tens of milliseconds of host time) is short enough to
// fall within one speed, and long enough that timer and cache noise do not
// make its fast decile a lucky minimum. setup_s is the median over
// repetitions.
constexpr double kFastDecile = 10;

// Summed over the chunks: each chunk's timed seconds at its fast decile.
double FastChunkSum(const std::vector<const Rep*>& reps, std::vector<double> Rep::*times) {
  double sum = 0;
  std::vector<double> copies(reps.size());
  for (size_t c = 0; c < (reps.front()->*times).size(); ++c) {
    for (size_t r = 0; r < reps.size(); ++r) {
      copies[r] = (reps[r]->*times)[c];
    }
    sum += Percentile(copies, kFastDecile);
  }
  return sum;
}

double RunPktsPerS(const std::vector<const Rep*>& reps) {
  return Ratio(static_cast<double>(reps.front()->timed.finished),
               FastChunkSum(reps, &Rep::chunk_wall_s));
}

std::vector<Metric> EndToEnd(const std::vector<const Rep*>& reps, double peak_rss_mb) {
  std::vector<double> pps, cpu, setup;
  for (const Rep* r : reps) {
    pps.push_back(r->pkts_per_s());
    cpu.push_back(Ratio(r->cpu_s, static_cast<double>(r->timed.finished) / 1e6));
    setup.push_back(r->setup_s);
  }
  PrintTiming("pkts_per_s", pps, "1/s", true);
  PrintTiming("cpu_s_per_mpkt", cpu, "s", false);
  PrintTiming("setup_s", setup, "s", false);
  const double mpkts = static_cast<double>(reps.front()->timed.finished) / 1e6;
  return {{"pkts_per_s", RunPktsPerS(reps), "1/s"},
          {"cpu_s_per_mpkt", Ratio(FastChunkSum(reps, &Rep::chunk_cpu_s), mpkts), "s"},
          {"setup_s", Median(setup), "s"},
          {"peak_rss_mb", peak_rss_mb, "MB"}};
}

std::vector<Metric> PerLayer(const std::vector<const Rep*>& traced,
                             const std::vector<const Rep*>& untraced, const Rep* parallel,
                             bool cluster, const LayerInputs& inputs) {
  // Median over the traced repetitions of a per-repetition value.
  const auto med = [&traced](auto fn) {
    std::vector<double> v;
    for (const Rep* r : traced) {
      v.push_back(fn(*r));
    }
    return Median(v);
  };
  const auto med_untraced = [&untraced](auto fn) {
    std::vector<double> v;
    for (const Rep* r : untraced) {
      v.push_back(fn(*r));
    }
    return Median(v);
  };
  const auto per_pkt = [](const Rep& r, uint64_t v) {
    return Ratio(static_cast<double>(v), static_cast<double>(r.timed.finished));
  };
  const auto slice_us = [](const std::vector<const Rep*>& reps) {
    std::vector<double> us;
    for (const Rep* r : reps) {
      for (double s : r->slice_wall_s) {
        us.push_back(s * 1e6);
      }
    }
    return us;
  };
  const std::vector<double> slices = slice_us(traced);

  MemoryMix mix;
  mix.dram_ops = med([&](const Rep& r) { return per_pkt(r, r.timed.dram_ops); });
  mix.sram_ops = med([&](const Rep& r) { return per_pkt(r, r.timed.sram_ops); });
  mix.scratch_ops = med([&](const Rep& r) { return per_pkt(r, r.timed.scratch_ops); });
  mix.dram_bytes_per_op = med([](const Rep& r) {
    return Ratio(static_cast<double>(r.timed.dram_bytes), static_cast<double>(r.timed.dram_ops));
  });

  std::vector<Metric> m;
  m.push_back({"sim.events_per_pkt", med([&](const Rep& r) { return per_pkt(r, r.timed.events); }),
               "events/pkt"});
  m.push_back({"sim.ns_per_event", med([](const Rep& r) {
                 return Ratio(r.slices_s() * 1e9, static_cast<double>(r.timed.events));
               }),
               "ns"});
  m.push_back({"sim.slice_us_p50", Percentile(slices, 50), "us"});
  m.push_back({"sim.slice_us_p99", Percentile(slices, 99), "us"});
  m.push_back({"proc.steady_allocs_per_pkt",
               med_untraced([&](const Rep& r) { return per_pkt(r, r.steady_allocs); }),
               "allocs/pkt"});
  m.push_back({"proc.setup_allocs",
               med_untraced([](const Rep& r) { return static_cast<double>(r.setup_allocs); }),
               "count"});
  m.push_back({"mem.issue_ns", MemIssueNs(inputs, mix), "ns"});
  m.push_back({"mem.dram_ops_per_pkt", mix.dram_ops, "ops/pkt"});
  m.push_back({"mem.sram_ops_per_pkt", mix.sram_ops, "ops/pkt"});
  m.push_back({"mem.scratch_ops_per_pkt", mix.scratch_ops, "ops/pkt"});
  m.push_back({"mem.dram_bytes_per_pkt",
               med([&](const Rep& r) { return per_pkt(r, r.timed.dram_bytes); }), "B/pkt"});
  m.push_back({"ixp.me_util", med([](const Rep& r) {
                 return Ratio(static_cast<double>(r.timed.me_busy_cycles), r.me_avail_cycles);
               }),
               "ratio"});
  m.push_back({"ixp.sa_util", med([](const Rep& r) {
                 return Ratio(static_cast<double>(r.timed.sa_busy_cycles), r.sa_avail_cycles);
               }),
               "ratio"});
  m.push_back({"core.exceptional_share", med([](const Rep& r) {
                 return Ratio(static_cast<double>(r.timed.exceptional),
                              static_cast<double>(r.timed.input_pkts));
               }),
               "ratio"});
  m.push_back({"core.to_pentium_share", med([](const Rep& r) {
                 return Ratio(static_cast<double>(r.timed.to_pentium),
                              static_cast<double>(r.timed.input_pkts));
               }),
               "ratio"});
  m.push_back({"core.queue_drops",
               med([](const Rep& r) { return static_cast<double>(r.end.queue_drops); }), "count"});
  m.push_back({"core.gov_drop_share", med([](const Rep& r) {
                 return Ratio(static_cast<double>(r.end.gov_drops),
                              static_cast<double>(r.end.offered));
               }),
               "ratio"});
  m.push_back({"core.gov_escalations",
               med([](const Rep& r) { return static_cast<double>(r.end.gov_escalations); }),
               "count"});
  m.push_back({"route.lookup_ns", RouteLookupNs(inputs), "ns"});
  m.push_back({"route.cache_hit_ratio", med([](const Rep& r) {
                 return Ratio(static_cast<double>(r.timed.cache_hits),
                              static_cast<double>(r.timed.cache_hits + r.timed.cache_misses));
               }),
               "ratio"});
  m.push_back({"route.epoch_bumps",
               med([](const Rep& r) { return static_cast<double>(r.timed.route_epochs); }),
               "count"});
  m.push_back({"vrp.run_ns", VrpRunNs(inputs), "ns"});
  m.push_back({"vrp.traps", med([](const Rep& r) { return static_cast<double>(r.end.vrp_traps); }),
               "count"});
  m.push_back({"net.pool_high_water",
               med([](const Rep& r) { return static_cast<double>(r.end.pool_high_water); }),
               "buffers"});
  m.push_back({"net.pool_slabs",
               med([](const Rep& r) { return static_cast<double>(r.end.pool_slabs); }), "count"});
  m.push_back({"net.rx_drop_share", med([](const Rep& r) {
                 return Ratio(static_cast<double>(r.end.rx_drops),
                              static_cast<double>(r.end.offered));
               }),
               "ratio"});
  m.push_back({"cluster.window_us_p50", cluster ? Percentile(slices, 50) : 0.0, "us"});
  m.push_back({"cluster.window_us_p99", cluster ? Percentile(slices, 99) : 0.0, "us"});
  m.push_back({"cluster.idle_window_share", cluster ? med([](const Rep& r) {
                 return Ratio(static_cast<double>(r.idle_slices),
                              static_cast<double>(r.slice_wall_s.size()));
               })
                                                    : 0.0,
               "ratio"});
  m.push_back({"cluster.shard_imbalance", cluster ? med([](const Rep& r) {
                 const auto& ev = r.timed.node_events;
                 const double mean = static_cast<double>(r.timed.events - r.timed.hub_events) /
                                     static_cast<double>(kMaxNodes);
                 return Ratio(static_cast<double>(*std::max_element(ev.begin(), ev.end())), mean);
               })
                                                  : 0.0,
               "ratio"});
  m.push_back({"cluster.hub_event_share", cluster ? med([](const Rep& r) {
                 return Ratio(static_cast<double>(r.timed.hub_events),
                              static_cast<double>(r.timed.events));
               })
                                                  : 0.0,
               "ratio"});
  // The same windows at check_threads (the shard pool's barrier at work).
  const std::vector<double> parallel_slices =
      parallel != nullptr ? slice_us({parallel}) : std::vector<double>{};
  m.push_back({"cluster.parallel_window_us_p50", Percentile(parallel_slices, 50), "us"});
  m.push_back({"cluster.parallel_window_us_p99", Percentile(parallel_slices, 99), "us"});
  m.push_back({"cluster.parallel_speedup",
               parallel != nullptr ? Ratio(med([](const Rep& r) { return r.slices_s(); }),
                                           parallel->slices_s())
                                   : 0.0,
               "x"});
  m.push_back({"cluster.fabric_frames_per_pkt",
               med([&](const Rep& r) { return per_pkt(r, r.timed.fabric_frames); }), "frames/pkt"});
  m.push_back({"health.recoveries",
               med([](const Rep& r) { return static_cast<double>(r.end.recoveries); }), "count"});
  m.push_back({"fault.injected",
               med([](const Rep& r) { return static_cast<double>(r.end.faults_injected); }),
               "count"});
  const char* const kSetup[4] = {"setup.construct_ms", "setup.routes_ms", "setup.install_ms",
                                 "setup.start_ms"};
  for (int phase = 0; phase < 4; ++phase) {
    m.push_back({kSetup[phase], med([phase](const Rep& r) { return r.phase_s[phase] * 1e3; }),
                 "ms"});
  }
  m.push_back({"trace.pkts_per_s_ratio", Ratio(RunPktsPerS(traced), RunPktsPerS(untraced)),
               "ratio"});
  return m;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: npr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n");
    return 2;
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr, "npr_perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const int check_threads = CheckThreads(args.workload);
  const bool alloc_live = AllocCountingLive();
  std::printf("host {\"nproc\": %u, \"threads\": 1, \"check_threads\": %d, "
              "\"build_type\": \"%s\", \"alloc_counting\": %s, \"workload\": \"%s\", "
              "\"seed\": %" PRIu64 ", \"trace\": %d}\n",
              std::thread::hardware_concurrency(), check_threads, NPR_PERFBENCH_BUILD_TYPE,
              alloc_live ? "true" : "false", args.workload.c_str(), args.seed,
              args.trace ? 1 : 0);
  if (args.trace && !alloc_live) {
    std::fprintf(stderr,
                 "npr_perfbench: allocation counting is compiled out (Debug or sanitized "
                 "build); refusing to report proc.* metrics\n");
    return 3;
  }

  // One discarded repetition lets caches, page mappings and the allocator
  // settle. Then untraced repetitions only, or (traced run) alternating
  // untraced and traced ones, until the time is up.
  Tracer off(false);
  Tracer traced(true);
  LayerInputs inputs;
  const Rep warmup = RunRep(args, 1, off, -1, nullptr);
  // What one repetition needs. Later repetitions leave the benchmark's own
  // records between the freed routers' blocks, and the heap (never trimmed,
  // see run.py) then grows by up to 15% depending on how many ran.
  const double peak_rss_mb = PeakRssMb();
  std::vector<Rep> reps;
  const double deadline = WallNow() + args.seconds;
  while (reps.size() < 2 || WallNow() < deadline) {
    const bool trace_this = args.trace && reps.size() % 2 == 1;
    reps.push_back(RunRep(args, 1, trace_this ? traced : off, static_cast<int>(reps.size()),
                          trace_this && inputs.routes.empty() ? &inputs : nullptr));
  }

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<const Rep*> checked = {&warmup};
  for (const Rep& r : reps) {
    checked.push_back(&r);
  }
  // The parallel mode must reproduce the single-threaded run bit for bit.
  // In the traced run its windows are traced too (cluster.parallel_*).
  Tracer parallel_tracer(args.trace);
  Rep parallel;
  if (check_threads > 1) {
    // The shard workers inherit this thread's CPU mask, so they share the
    // one vCPU the timed repetitions ran on. Spread over a shared VM's vCPUs,
    // every window waits for the host to wake idle vCPUs: on a 4-vCPU VM this
    // run took 9 s and 11 CPU seconds there, against under 1 s on one vCPU.
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(sched_getcpu(), &one);
    sched_setaffinity(0, sizeof(one), &one);
    parallel = RunRep(args, check_threads, parallel_tracer, -2, nullptr);
    checked.push_back(&parallel);
  }
  for (const Rep* rp : checked) {
    const Rep& r = *rp;
    attempted += r.end.offered;
    failed += r.failed;
    if (!r.check.empty()) {
      correct = false;
      std::printf("check failed: %s\n", r.check.c_str());
    }
    if (r.digest != reps.front().digest) {
      correct = false;
      if (rp == &parallel) {
        std::printf("check failed: threads=%d digest differs from threads=1\n", check_threads);
      } else {
        std::printf("check failed: repetition digests differ (nondeterminism)\n");
      }
    }
  }
  std::printf("digest %s %016" PRIx64 ": %s\n", args.workload.c_str(),
              Fnv1a(reps.front().digest), reps.front().digest.c_str());

  std::vector<const Rep*> traced_reps, untraced_reps;
  for (const Rep& r : reps) {
    (r.traced ? traced_reps : untraced_reps).push_back(&r);
  }
  std::vector<Metric> metrics =
      args.trace ? PerLayer(traced_reps, untraced_reps, check_threads > 1 ? &parallel : nullptr,
                            args.workload == "cluster8", inputs)
                 : EndToEnd(untraced_reps, peak_rss_mb);
  if (args.trace) {
    for (const Metric& m : metrics) {
      std::printf("%-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
    if (!args.trace_out.empty()) {
      if (traced.WriteJson(args.trace_out)) {
        std::printf("spans written to %s\n", args.trace_out.c_str());
      } else {
        std::fprintf(stderr, "npr_perfbench: cannot write %s\n", args.trace_out.c_str());
      }
    }
  }
  std::printf("ops=%" PRIu64 " failed=%" PRIu64 " repetitions=%zu\n", attempted, failed,
              reps.size());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

// Shared helpers for the reproduction benches: canonical configurations,
// measurement runs, and paper-vs-measured table formatting.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/router.h"
#include "src/net/traffic_gen.h"
#include "src/obs/observer.h"

namespace npr {
namespace bench {

// Heap allocations performed by this process so far (bench/alloc_count.cc;
// 0 when the counting interposers are compiled out — Debug or sanitized
// builds). Published as the "allocs" field of BENCH_<name>.json.
uint64_t AllocCount();

// --- machine-readable results (BENCH_<name>.json) and their budgets ---
//
// Row() records every paper-vs-measured row as it is printed, with an
// optional Bound: the budget CI holds it to, written once at that call.
// EmitJson() dumps the rows plus wall-clock time and simulation-event
// throughput, checks every bound, and returns the bench's exit status.

// Signed deviation of `measured` from `paper`, in percent (0 when the row
// has no paper value).
inline double DeltaPct(double paper, double measured) {
  return paper != 0 ? (measured - paper) / paper * 100.0 : 0.0;
}

struct Bound {
  enum class Kind { kNone, kAtMost, kPositiveAtMost, kAtLeast, kExactly, kWithinPct };
  Kind kind = Kind::kNone;
  double limit = 0.0;

  // kWithinPct measures against the row's paper value, in both directions.
  bool Holds(double paper, double measured) const {
    switch (kind) {
      case Kind::kNone:
        return true;
      case Kind::kAtMost:
        return measured <= limit;
      case Kind::kPositiveAtMost:
        return measured > 0 && measured <= limit;
      case Kind::kAtLeast:
        return measured >= limit;
      case Kind::kExactly:
        return measured == limit;
      case Kind::kWithinPct:
        return std::fabs(DeltaPct(paper, measured)) <= limit;
    }
    return false;
  }
};

inline Bound AtMost(double limit) { return {Bound::Kind::kAtMost, limit}; }
// (0, limit]: something was measured, and it came in within the budget.
inline Bound PositiveAtMost(double limit) { return {Bound::Kind::kPositiveAtMost, limit}; }
inline Bound AtLeast(double limit) { return {Bound::Kind::kAtLeast, limit}; }
inline Bound Exactly(double value) { return {Bound::Kind::kExactly, value}; }
inline Bound WithinPct(double pct) { return {Bound::Kind::kWithinPct, pct}; }

struct RowRec {
  std::string label;
  double paper = 0.0;
  double measured = 0.0;
  std::string unit;
  Bound bound;
};

// One latency distribution (per path or per stage), in nanoseconds.
struct LatencyRec {
  std::string label;
  uint64_t count = 0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double p99_ns = 0.0;
  double max_ns = 0.0;
};

// One engine's cycle accounting from the profiler.
struct EngineCyclesRec {
  int engine = 0;
  uint64_t compute_cycles = 0;
  double wait_us[kWaitClassCount] = {};
};

struct JsonState {
  std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  std::vector<RowRec> rows;
  std::vector<LatencyRec> path_latency;
  std::vector<LatencyRec> stage_latency;
  std::vector<EngineCyclesRec> engine_cycles;
  uint64_t events_run = 0;
  uint64_t steady_allocs = 0;
  // Set by EmitJson: the bench name and the events/sec it wrote.
  std::string name;
  double events_per_sec = 0.0;
  uint64_t seed = 0;
  bool has_run_info = false;
  std::string fault_plan;
  std::string profiler_report;
};

inline JsonState& State() {
  static JsonState state;
  return state;
}

// Adds simulation events executed (EventQueue::events_run deltas) to the
// bench total. MeasureMpps does this automatically; benches that drive the
// engine directly call it themselves.
inline void RecordEvents(uint64_t events) { State().events_run += events; }

// Records the seed and fault-plan name a chaos/failover bench ran under, so
// BENCH_*.json rows can be tied back to the exact deterministic run that
// produced them (and replayed bit-identically).
inline void SetRunInfo(uint64_t seed, const std::string& fault_plan) {
  State().seed = seed;
  State().fault_plan = fault_plan;
  State().has_run_info = true;
}

// The §3.5.1 measurement setup: FIFO-recycling "infinitely fast ports",
// MicroEngines only.
inline RouterConfig InfiniteFifoConfig() {
  RouterConfig cfg;
  cfg.port_mode = PortMode::kInfiniteFifo;
  cfg.enable_pentium = false;
  cfg.enable_strongarm = false;
  return cfg;
}

inline void AddDefaultRoutes(Router& router) {
  for (int p = 0; p < router.num_ports(); ++p) {
    router.AddRoute("10." + std::to_string(p) + ".0.0/16", static_cast<uint8_t>(p));
  }
  router.WarmRouteCache(8);
}

// Runs warmup + measurement; returns the forwarding rate in Mpps.
inline double MeasureMpps(Router& router, double warm_ms = 2.0, double measure_ms = 10.0) {
  const uint64_t events_before = router.engine().events_run();
  router.RunForMs(warm_ms);
  router.StartMeasurement();
  // Steady-state heap allocations: what the measurement window costs after
  // construction and warmup are done. The pooled data path holds this near
  // zero; "steady_allocs" in BENCH_*.json is the sum over all runs.
  const uint64_t allocs_before = AllocCount();
  router.RunForMs(measure_ms);
  State().steady_allocs += AllocCount() - allocs_before;
  RecordEvents(router.engine().events_run() - events_before);
  return router.ForwardingRateMpps();
}

// Builds, routes, starts, and measures one configuration.
inline double RunRate(RouterConfig cfg, double warm_ms = 2.0, double measure_ms = 10.0) {
  Router router(std::move(cfg));
  AddDefaultRoutes(router);
  router.Start();
  return MeasureMpps(router, warm_ms, measure_ms);
}

// --- output formatting ---

inline void Title(const std::string& text) {
  std::printf("\n=== %s ===\n", text.c_str());
}

inline void RowHeader() {
  std::printf("%-44s %12s %12s %8s\n", "configuration", "paper", "measured", "delta");
  std::printf("%-44s %12s %12s %8s\n", "--------------------------------------------",
              "-----------", "-----------", "-------");
}

inline void Row(const std::string& label, double paper, double measured,
                const char* unit = "Mpps", Bound bound = {}) {
  std::printf("%-44s %8.3f %-4s %8.3f %-4s %+6.1f%%\n", label.c_str(), paper, unit, measured,
              unit, DeltaPct(paper, measured));
  State().rows.push_back(RowRec{label, paper, measured, unit, bound});
}

inline void Note(const std::string& text) { std::printf("  note: %s\n", text.c_str()); }

// --- observability sections ---
//
// RecordObserver() folds an attached Observer into the bench output:
// per-path and per-stage latency percentiles plus the profiler's per-engine
// cycle accounting. Distributions with no samples are skipped, so a bench
// that never attached an observer (or a NPR_OBS=OFF build, where the hook
// sites compile away) emits exactly the same stdout and JSON as before.

inline void AddLatencyRec(std::vector<LatencyRec>* out, const std::string& label,
                          const Histogram& h) {
  if (h.count() == 0) {
    return;
  }
  out->push_back(LatencyRec{label, h.count(), h.Percentile(50), h.Percentile(95),
                            h.Percentile(99), static_cast<double>(h.max())});
}

inline void RecordObserver(const Observer& obs, int num_engines = 6) {
  JsonState& st = State();
  for (int p = 0; p < kPathKindCount; ++p) {
    AddLatencyRec(&st.path_latency,
                  std::string("path_") + PathKindName(static_cast<PathKind>(p)),
                  obs.path_latency(static_cast<PathKind>(p)));
  }
  for (int h = 0; h < kHopKindCount; ++h) {
    AddLatencyRec(&st.stage_latency, HopKindName(static_cast<HopKind>(h)),
                  obs.hop_latency(static_cast<HopKind>(h)));
  }
  const CycleProfiler& prof = obs.profiler();
  for (int me = 0; me < num_engines; ++me) {
    EngineCyclesRec rec;
    rec.engine = me;
    rec.compute_cycles = prof.EngineComputeCycles(static_cast<uint8_t>(me));
    uint64_t any_wait = 0;
    for (int w = 0; w < kWaitClassCount; ++w) {
      const uint64_t ps = prof.EngineWaitPs(static_cast<uint8_t>(me), static_cast<WaitClass>(w));
      rec.wait_us[w] = static_cast<double>(ps) / kPsPerUs;
      any_wait += ps;
    }
    if (rec.compute_cycles != 0 || any_wait != 0) {
      st.engine_cycles.push_back(rec);
    }
  }

  if (!st.engine_cycles.empty()) {
    st.profiler_report = prof.Report();
  }
}

// Prints the recorded observability sections (called from EmitJson so they
// land after the paper-vs-measured tables). Silent when nothing was
// recorded.
inline void PrintObserverSections() {
  const JsonState& st = State();
  if (!st.path_latency.empty() || !st.stage_latency.empty()) {
    std::printf("\n%-24s %10s %10s %10s %10s %10s\n", "latency (ns)", "count", "p50", "p95",
                "p99", "max");
    for (const LatencyRec& r : st.path_latency) {
      std::printf("%-24s %10llu %10.0f %10.0f %10.0f %10.0f\n", r.label.c_str(),
                  static_cast<unsigned long long>(r.count), r.p50_ns, r.p95_ns, r.p99_ns,
                  r.max_ns);
    }
    for (const LatencyRec& r : st.stage_latency) {
      std::printf("%-24s %10llu %10.0f %10.0f %10.0f %10.0f\n", r.label.c_str(),
                  static_cast<unsigned long long>(r.count), r.p50_ns, r.p95_ns, r.p99_ns,
                  r.max_ns);
    }
  }
  if (!st.profiler_report.empty()) {
    std::printf("%s", st.profiler_report.c_str());
  }
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

// Returns true when `r.measured` holds `r.bound`; otherwise prints a FAIL
// line naming the bench (and seed), the row, its value and its bound.
// EmitJson checks every row with it; a bench calls it directly for a value
// that is not a row.
inline bool Check(const RowRec& r) {
  if (r.bound.Holds(r.paper, r.measured)) {
    return true;
  }
  // Indexed by Bound::Kind; each format takes the limit, then the paper value.
  static const char* const kBoundFormat[] = {"",      "<= %g", "in (0, %g]",
                                             ">= %g", "== %g", "within +/-%g%% of %g"};
  char bound[64];
  std::snprintf(bound, sizeof(bound), kBoundFormat[static_cast<int>(r.bound.kind)],
                r.bound.limit, r.paper);
  const JsonState& st = State();
  std::printf("FAIL %s", st.name.c_str());
  if (st.has_run_info) {
    std::printf(" seed 0x%" PRIx64, st.seed);
  }
  std::printf(": %s = %g %s, bound %s\n", r.label.c_str(), r.measured, r.unit.c_str(), bound);
  return false;
}

// Writes BENCH_<name>.json in the current directory: every Row() emitted so
// far, wall-clock time since the process started, and events/sec through
// the simulation core. Then checks every row against its bound. Call once,
// at the end of main(); returns 0 if the file was written and every row
// holds its bound, 1 otherwise.
inline int EmitJson(const std::string& name) {
  PrintObserverSections();
  JsonState& st = State();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - st.start).count();
  st.events_per_sec = wall > 0 ? static_cast<double>(st.events_run) / wall : 0.0;
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n", JsonEscape(name).c_str());
  if (st.has_run_info) {
    std::fprintf(f, "  \"seed\": %llu,\n", static_cast<unsigned long long>(st.seed));
    std::fprintf(f, "  \"fault_plan\": \"%s\",\n", JsonEscape(st.fault_plan).c_str());
  }
  std::fprintf(f, "  \"wall_seconds\": %.3f,\n", wall);
  std::fprintf(f, "  \"events_run\": %llu,\n", static_cast<unsigned long long>(st.events_run));
  std::fprintf(f, "  \"events_per_sec\": %.0f,\n", st.events_per_sec);
  std::fprintf(f, "  \"allocs\": %llu,\n", static_cast<unsigned long long>(AllocCount()));
  std::fprintf(f, "  \"steady_allocs\": %llu,\n",
               static_cast<unsigned long long>(st.steady_allocs));
  // Observability sections: present only when an attached Observer actually
  // collected samples, so reference output is unchanged otherwise.
  const auto emit_latency = [f](const char* key, const std::vector<LatencyRec>& recs) {
    if (recs.empty()) {
      return;
    }
    std::fprintf(f, "  \"%s\": [\n", key);
    for (size_t i = 0; i < recs.size(); ++i) {
      const LatencyRec& r = recs[i];
      std::fprintf(f,
                   "    {\"label\": \"%s\", \"count\": %llu, \"p50_ns\": %.1f, "
                   "\"p95_ns\": %.1f, \"p99_ns\": %.1f, \"max_ns\": %.1f}%s\n",
                   JsonEscape(r.label).c_str(), static_cast<unsigned long long>(r.count),
                   r.p50_ns, r.p95_ns, r.p99_ns, r.max_ns, i + 1 < recs.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
  };
  emit_latency("path_latency", st.path_latency);
  emit_latency("stage_latency", st.stage_latency);
  if (!st.engine_cycles.empty()) {
    std::fprintf(f, "  \"engine_cycles\": [\n");
    for (size_t i = 0; i < st.engine_cycles.size(); ++i) {
      const EngineCyclesRec& r = st.engine_cycles[i];
      std::fprintf(f, "    {\"engine\": %d, \"compute_cycles\": %llu", r.engine,
                   static_cast<unsigned long long>(r.compute_cycles));
      for (int w = 0; w < kWaitClassCount; ++w) {
        std::fprintf(f, ", \"wait_%s_us\": %.3f", WaitClassName(static_cast<WaitClass>(w)),
                     r.wait_us[w]);
      }
      std::fprintf(f, "}%s\n", i + 1 < st.engine_cycles.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
  }
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < st.rows.size(); ++i) {
    const RowRec& r = st.rows[i];
    std::fprintf(f,
                 "    {\"label\": \"%s\", \"paper\": %.6g, \"measured\": %.6g, "
                 "\"unit\": \"%s\", \"delta_pct\": %.2f}%s\n",
                 JsonEscape(r.label).c_str(), r.paper, r.measured, JsonEscape(r.unit).c_str(),
                 DeltaPct(r.paper, r.measured), i + 1 < st.rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());

  // Only now: copying a long name allocates, which "allocs" must not count.
  st.name = name;
  bool ok = true;
  for (const RowRec& r : st.rows) {
    ok &= Check(r);
  }
  return ok ? 0 : 1;
}

}  // namespace bench
}  // namespace npr

#endif  // BENCH_BENCH_UTIL_H_

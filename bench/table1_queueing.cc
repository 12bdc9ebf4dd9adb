// Table 1: maximum packet rates by input and output queueing discipline
// (§3.5.1). As in the paper, each stage is measured in isolation — the
// input process against a zero-cost drain, the output process "fooled into
// believing data was always available" — plus the in-text numbers: the
// 8 x 100 Mbps line-rate run (1.128 Mpps) and the fastest feasible system.

#include "bench/bench_util.h"

namespace npr {
namespace {

using bench::InfiniteFifoConfig;

double InputOnly(InputQueueing iq, bool single_dst) {
  RouterConfig cfg = InfiniteFifoConfig();
  cfg.input_queueing = iq;
  cfg.output_contexts_override = 0;
  cfg.magic_drain = true;
  cfg.synthetic_single_dst = single_dst;
  return bench::RunRate(std::move(cfg));
}

double OutputOnly(OutputServicing os) {
  RouterConfig cfg = InfiniteFifoConfig();
  cfg.input_contexts_override = 0;
  cfg.output_fake_data = true;
  cfg.output_servicing = os;
  Router router(std::move(cfg));
  bench::AddDefaultRoutes(router);
  router.Start();
  return bench::MeasureMpps(router);
}

double LineRate8x100() {
  RouterConfig cfg;  // real ports
  cfg.enable_pentium = false;
  Router router(std::move(cfg));
  // Observability: per-path latency percentiles and per-engine cycle
  // accounting for the end-to-end run land in BENCH_table1_queueing.json.
  Observer obs(router.engine());
  router.SetObserver(&obs);
  bench::AddDefaultRoutes(router);
  router.WarmRouteCache(64);
  router.Start();
  std::vector<std::unique_ptr<TrafficGen>> gens;
  for (int p = 0; p < 8; ++p) {
    TrafficSpec spec;
    spec.rate_pps = 141'000;
    gens.push_back(std::make_unique<TrafficGen>(router.engine(), router.port(p), spec,
                                                static_cast<uint64_t>(p + 1)));
    gens.back()->Start(16 * kPsPerMs);
  }
  const double mpps = bench::MeasureMpps(router, 4.0, 10.0);
  bench::RecordObserver(obs);
  return mpps;
}

double FastestFeasibleSystem() {
  // I.2 + O.1 running together end to end (our full-system number; the
  // paper quotes the input-stage bound 3.47 for this configuration).
  return bench::RunRate(InfiniteFifoConfig());
}

// The line-rate run attaches an Observer, so the JSON must carry a path-A
// distribution, and every recorded path must have positive, ordered
// percentiles. Prints a FAIL line for each problem.
bool PathLatencySane() {
  bool ok = true;
  bool has_path_a = false;
  for (const bench::LatencyRec& r : bench::State().path_latency) {
    has_path_a = has_path_a || r.label == "path_A";
    if (!(r.count > 0 && 0 < r.p50_ns && r.p50_ns <= r.p95_ns && r.p95_ns <= r.p99_ns &&
          r.max_ns > 0)) {
      std::printf("FAIL table1_queueing: %s count %llu, p50 %g, p95 %g, p99 %g, max %g ns\n",
                  r.label.c_str(), static_cast<unsigned long long>(r.count), r.p50_ns,
                  r.p95_ns, r.p99_ns, r.max_ns);
      ok = false;
    }
  }
  if (!has_path_a) {
    std::printf("FAIL table1_queueing: path_latency has no path_A (observer not attached?)\n");
  }
  return ok && has_path_a;
}

}  // namespace
}  // namespace npr

int main() {
  using namespace npr;
  using namespace npr::bench;

  // A smoke band: EXPERIMENTS.md holds the rows to tighter ones.
  const Bound band = WithinPct(15.0);

  Title("Table 1 — maximum packet rates by queueing discipline (Mpps)");
  RowHeader();
  Row("I.1  private queues in registers", 3.75,
      InputOnly(InputQueueing::kPrivatePerContext, false), "Mpps", band);
  Row("I.2  protected public queues, no contention", 3.47,
      InputOnly(InputQueueing::kProtectedPublic, false), "Mpps", band);
  Row("I.3  protected public queues, max contention", 1.67,
      InputOnly(InputQueueing::kProtectedPublic, true), "Mpps", band);
  Row("O.1  single queue with batching", 3.78, OutputOnly(OutputServicing::kSingleQueueBatching),
      "Mpps", band);
  Row("O.2  single queue without batching", 3.41,
      OutputOnly(OutputServicing::kSingleQueueNoBatching), "Mpps", band);
  Row("O.3  multiple queues with indirection", 3.29,
      OutputOnly(OutputServicing::kMultiQueueIndirection), "Mpps", band);
  Note("paper O.1 (3.78 Mpps at 109 reg-ops/MP) exceeds the 2x200 MHz/109 = 3.67 Mpps");
  Note("pipeline ceiling; our output rows are bounded by it (orderings preserved).");

  Title("In-text results (§3.5.1)");
  RowHeader();
  Row("8 x 100 Mbps line rate, zero loss", 1.128, LineRate8x100(), "Mpps", band);
  Row("fastest feasible system (I.2 + O.1)", 3.47, FastestFeasibleSystem(), "Mpps", band);
  Note("the paper quotes the input-stage isolation bound; this row runs both");
  Note("stages together end to end, so it is bounded by min(I.2, O.1).");
  bool ok = EmitJson("table1_queueing") == 0;

  // The full router model at the pooled, burst-coalesced pace (~13M
  // events/sec on the development box); a per-packet-allocating data path
  // lands under this floor.
  ok &= Check({.label = "events_per_sec", .measured = State().events_per_sec, .unit = "ev/s",
               .bound = AtLeast(4.0e6)});
  // Steady state stays allocation-free: the measurement windows of the
  // whole ladder together allocate at most 10k times (pooled frames, inline
  // event nodes, in-place MP segmentation, nothing per packet). Skipped
  // when allocation counting is compiled out.
  if (AllocCount() > 0) {
    ok &= Check({.label = "steady_allocs", .measured = static_cast<double>(State().steady_allocs),
                 .unit = "allocs", .bound = AtMost(10'000)});
  }
  ok &= PathLatencySane();
  return ok ? 0 : 1;
}
